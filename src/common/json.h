/**
 * @file
 * Minimal self-contained JSON reader/writer for the orchestration
 * layer (scenario specs, checkpoints, the JSONL result store).
 *
 * Deliberately small: no external dependency, no DOM sharing, no
 * streaming. Two properties matter for the runtime and are guaranteed
 * here:
 *
 *  - **Exact number round-trips.** Integral tokens are stored as
 *    int64/uint64 (seeds and shot budgets exceed the 2^53 double
 *    mantissa), and doubles are emitted via std::to_chars shortest
 *    form, so parse(dump(x)) reproduces every number bit-for-bit —
 *    the foundation of bit-identical checkpoint resume.
 *  - **Deterministic output.** Objects preserve insertion order and
 *    dump() is a pure function of the value, so a spec's canonical
 *    serialization (and therefore its fingerprint) is stable across
 *    runs and platforms.
 */

#ifndef TREEVQA_COMMON_JSON_H
#define TREEVQA_COMMON_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace treevqa {

/** One JSON value (tree-owned; copies are deep). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Int,    ///< integral token that fits int64
        Uint,   ///< integral token in (int64 max, uint64 max]
        Double, ///< any other number
        String,
        Array,
        Object
    };

    /** Ordered key/value members (insertion order preserved). */
    using Members = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() = default;
    JsonValue(std::nullptr_t) {}
    JsonValue(bool b) : type_(Type::Bool), bool_(b) {}
    JsonValue(int v) : type_(Type::Int), int_(v) {}
    JsonValue(std::int64_t v) : type_(Type::Int), int_(v) {}
    JsonValue(std::uint64_t v);
    JsonValue(double v) : type_(Type::Double), double_(v) {}
    JsonValue(const char *s) : type_(Type::String), string_(s) {}
    JsonValue(std::string s)
        : type_(Type::String), string_(std::move(s))
    {
    }

    /** Empty array / object factories. */
    static JsonValue array();
    static JsonValue object();

    /**
     * Parse a complete JSON document (trailing content beyond the
     * first value is an error). Throws std::runtime_error with a byte
     * offset on malformed input.
     */
    static JsonValue parse(const std::string &text);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Uint
            || type_ == Type::Double;
    }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; throw std::runtime_error on type mismatch. */
    bool asBool() const;
    /** Any number as double (integers convert). */
    double asDouble() const;
    /** Integral value as int64; throws on doubles with a fractional
     * part or out-of-range values. */
    std::int64_t asInt() const;
    /** Non-negative integral value as uint64. */
    std::uint64_t asUint() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    std::vector<JsonValue> &asArray();
    const Members &asObject() const;
    Members &asObject();

    /** Array append. */
    void push_back(JsonValue v);

    /** Object member lookup; nullptr when absent. */
    const JsonValue *find(const std::string &key) const;
    /** Object member access; throws std::runtime_error when absent. */
    const JsonValue &at(const std::string &key) const;
    /** Object insert-or-assign (preserves position on reassign). */
    void set(const std::string &key, JsonValue v);
    /** Remove an object member; returns whether it existed. The other
     * members keep their order, so erasing a trailing checksum field
     * restores the exact pre-checksum serialization (the CRC contract
     * of store records and checkpoints). */
    bool erase(const std::string &key);
    bool contains(const std::string &key) const
    {
        return find(key) != nullptr;
    }

    /**
     * Serialize. indent < 0: compact one-line form (the canonical
     * fingerprint form); indent >= 0: pretty-printed with that many
     * spaces per level. Non-finite doubles emit null (JSON has no
     * NaN/Inf).
     */
    std::string dump(int indent = -1) const;

    bool operator==(const JsonValue &other) const;
    bool operator!=(const JsonValue &other) const
    {
        return !(*this == other);
    }

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    Members members_;
};

/** NaN/Inf-safe number: non-finite doubles become JSON null. */
JsonValue jsonNumberOrNull(double v);

/** Apply `fn` to the object's member `key` when present; absent keys
 * are a no-op (the optional-field idiom of every config reader). */
template <typename Fn>
void
jsonMaybe(const JsonValue &object, const std::string &key, Fn &&fn)
{
    if (const JsonValue *value = object.find(key))
        fn(*value);
}

/** Throw std::invalid_argument naming the first member of `object`
 * that is not in `known` ("<context>: unknown key ..."). The strict
 * counterpart of jsonMaybe used by spec readers. */
void jsonRejectUnknownKeys(const JsonValue &object,
                           const std::vector<std::string> &known,
                           const std::string &context);

/** Append `s` to `out` as a JSON string literal, escaped exactly as
 * dump() escapes strings (for writers that emit a canonical line
 * without building a JsonValue). */
void jsonAppendString(std::string &out, const std::string &s);

/** Render a choice list as `"a", "b", "c"` for validation errors. */
std::string jsonJoinQuoted(const std::vector<std::string> &values);

/** 64-bit FNV-1a of the value's compact serialization, as 16 hex
 * chars. The spec fingerprint used for checkpoint files and result
 * records. */
std::string jsonFingerprint(const JsonValue &value);

} // namespace treevqa

#endif // TREEVQA_COMMON_JSON_H
