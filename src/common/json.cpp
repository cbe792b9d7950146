#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace treevqa {

namespace {

[[noreturn]] void
fail(const std::string &what, std::size_t pos)
{
    throw std::runtime_error("json: " + what + " at byte "
                             + std::to_string(pos));
}

/** Nesting cap: the recursive-descent parser uses one stack frame per
 * level, so unbounded depth turns malformed input into a stack
 * overflow instead of the documented runtime_error. */
constexpr int kMaxParseDepth = 256;

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    int depth = 0;

    bool eof() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    void skipWs()
    {
        while (!eof()) {
            const char c = text[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos;
            else
                break;
        }
    }

    void expect(char c)
    {
        if (eof() || text[pos] != c)
            fail(std::string("expected '") + c + "'", pos);
        ++pos;
    }

    bool consume(const char *literal)
    {
        const std::size_t len = std::strlen(literal);
        if (text.compare(pos, len, literal) == 0) {
            pos += len;
            return true;
        }
        return false;
    }

    JsonValue parseValue()
    {
        if (++depth > kMaxParseDepth)
            fail("nesting deeper than "
                     + std::to_string(kMaxParseDepth) + " levels",
                 pos);
        JsonValue value = parseValueAtDepth();
        --depth;
        return value;
    }

    JsonValue parseValueAtDepth()
    {
        skipWs();
        if (eof())
            fail("unexpected end of input", pos);
        const char c = peek();
        switch (c) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return JsonValue(parseString());
        case 't':
            if (consume("true"))
                return JsonValue(true);
            fail("invalid literal", pos);
        case 'f':
            if (consume("false"))
                return JsonValue(false);
            fail("invalid literal", pos);
        case 'n':
            if (consume("null"))
                return JsonValue(nullptr);
            fail("invalid literal", pos);
        default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail("unexpected character", pos);
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue obj = JsonValue::object();
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos;
            return obj;
        }
        for (;;) {
            skipWs();
            if (eof() || peek() != '"')
                fail("expected object key", pos);
            std::string key = parseString();
            skipWs();
            expect(':');
            obj.asObject().emplace_back(std::move(key), parseValue());
            skipWs();
            if (eof())
                fail("unterminated object", pos);
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue arr = JsonValue::array();
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos;
            return arr;
        }
        for (;;) {
            arr.push_back(parseValue());
            skipWs();
            if (eof())
                fail("unterminated array", pos);
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    unsigned parseHex4()
    {
        if (pos + 4 > text.size())
            fail("truncated \\u escape", pos);
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape", pos - 1);
        }
        return value;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (eof())
                fail("unterminated string", pos);
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (eof())
                fail("truncated escape", pos);
            c = text[pos++];
            switch (c) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned cp = parseHex4();
                if (cp >= 0xD800 && cp <= 0xDBFF && pos + 1 < text.size()
                    && text[pos] == '\\' && text[pos + 1] == 'u') {
                    pos += 2;
                    const unsigned lo = parseHex4();
                    if (lo >= 0xDC00 && lo <= 0xDFFF)
                        cp = 0x10000 + ((cp - 0xD800) << 10)
                           + (lo - 0xDC00);
                    else
                        fail("invalid surrogate pair", pos);
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                fail("invalid escape", pos - 1);
            }
        }
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos;
        if (!eof() && peek() == '-')
            ++pos;
        bool integral = true;
        while (!eof()) {
            const char c = peek();
            if (c >= '0' && c <= '9') {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+'
                       || c == '-') {
                if (c != '-' || (text[pos - 1] == 'e'
                                 || text[pos - 1] == 'E')) {
                    integral = false;
                    ++pos;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if (pos == start || (text[start] == '-' && pos == start + 1))
            fail("invalid number", start);

        const char *first = text.data() + start;
        const char *last = text.data() + pos;
        if (integral) {
            if (text[start] != '-') {
                std::uint64_t u = 0;
                const auto res = std::from_chars(first, last, u);
                if (res.ec == std::errc() && res.ptr == last) {
                    if (u <= static_cast<std::uint64_t>(
                            std::numeric_limits<std::int64_t>::max()))
                        return JsonValue(static_cast<std::int64_t>(u));
                    return JsonValue(u);
                }
            } else {
                std::int64_t i = 0;
                const auto res = std::from_chars(first, last, i);
                if (res.ec == std::errc() && res.ptr == last)
                    return JsonValue(i);
            }
            // Out of 64-bit range: fall through to double.
        }
        double d = 0.0;
        const auto res = std::from_chars(first, last, d);
        if (res.ec != std::errc() || res.ptr != last)
            fail("invalid number", start);
        return JsonValue(d);
    }
};

void
escapeString(std::string &out, const std::string &s)
{
    out.push_back('"');
    // Characters that need no escape are copied in runs.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (static_cast<unsigned char>(c) >= 0x20 && c != '"'
            && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
        }
        }
    }
    out.append(s, run, std::string::npos);
    out.push_back('"');
}

void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
    // Keep the token recognizably floating-point so it round-trips
    // into Type::Double (shortest form may drop the point: "2" ).
    bool integral = true;
    for (const char *p = buf; p != res.ptr; ++p)
        if (*p == '.' || *p == 'e' || *p == 'E') {
            integral = false;
            break;
        }
    if (integral)
        out += ".0";
}

} // namespace

JsonValue::JsonValue(std::uint64_t v)
{
    if (v <= static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::max())) {
        type_ = Type::Int;
        int_ = static_cast<std::int64_t>(v);
    } else {
        type_ = Type::Uint;
        uint_ = v;
    }
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = Type::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = Type::Object;
    return v;
}

JsonValue
JsonValue::parse(const std::string &text)
{
    Parser parser{text};
    JsonValue value = parser.parseValue();
    parser.skipWs();
    if (!parser.eof())
        fail("trailing content", parser.pos);
    return value;
}

bool
JsonValue::asBool() const
{
    if (type_ != Type::Bool)
        throw std::runtime_error("json: not a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    switch (type_) {
    case Type::Int: return static_cast<double>(int_);
    case Type::Uint: return static_cast<double>(uint_);
    case Type::Double: return double_;
    default: throw std::runtime_error("json: not a number");
    }
}

std::int64_t
JsonValue::asInt() const
{
    switch (type_) {
    case Type::Int:
        return int_;
    case Type::Uint:
        throw std::runtime_error("json: integer out of int64 range");
    case Type::Double: {
        const auto i = static_cast<std::int64_t>(double_);
        if (static_cast<double>(i) != double_)
            throw std::runtime_error("json: number is not integral");
        return i;
    }
    default:
        throw std::runtime_error("json: not a number");
    }
}

std::uint64_t
JsonValue::asUint() const
{
    switch (type_) {
    case Type::Int:
        if (int_ < 0)
            throw std::runtime_error("json: negative integer");
        return static_cast<std::uint64_t>(int_);
    case Type::Uint:
        return uint_;
    case Type::Double: {
        if (double_ < 0.0)
            throw std::runtime_error("json: negative integer");
        const auto u = static_cast<std::uint64_t>(double_);
        if (static_cast<double>(u) != double_)
            throw std::runtime_error("json: number is not integral");
        return u;
    }
    default:
        throw std::runtime_error("json: not a number");
    }
}

const std::string &
JsonValue::asString() const
{
    if (type_ != Type::String)
        throw std::runtime_error("json: not a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (type_ != Type::Array)
        throw std::runtime_error("json: not an array");
    return array_;
}

std::vector<JsonValue> &
JsonValue::asArray()
{
    if (type_ != Type::Array)
        throw std::runtime_error("json: not an array");
    return array_;
}

const JsonValue::Members &
JsonValue::asObject() const
{
    if (type_ != Type::Object)
        throw std::runtime_error("json: not an object");
    return members_;
}

JsonValue::Members &
JsonValue::asObject()
{
    if (type_ != Type::Object)
        throw std::runtime_error("json: not an object");
    return members_;
}

void
JsonValue::push_back(JsonValue v)
{
    asArray().push_back(std::move(v));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    throw std::runtime_error("json: missing key \"" + key + "\"");
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    for (auto &[k, existing] : asObject()) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

bool
JsonValue::erase(const std::string &key)
{
    Members &members = asObject();
    for (auto it = members.begin(); it != members.end(); ++it) {
        if (it->first == key) {
            members.erase(it);
            return true;
        }
    }
    return false;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    const auto newline = [&](int level) {
        if (pretty) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent * level), ' ');
        }
    };

    switch (type_) {
    case Type::Null:
        out += "null";
        break;
    case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
    case Type::Int: {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), int_);
        out.append(buf, res.ptr);
        break;
    }
    case Type::Uint: {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), uint_);
        out.append(buf, res.ptr);
        break;
    }
    case Type::Double:
        appendDouble(out, double_);
        break;
    case Type::String:
        escapeString(out, string_);
        break;
    case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            newline(depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
    case Type::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            newline(depth + 1);
            escapeString(out, members_[i].first);
            out += pretty ? ": " : ":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (type_ != other.type_) {
        // Int vs Uint is always unequal: Uint only ever holds values
        // above int64 max (constructor/parser invariant), which no
        // Int can reach — and asUint() would throw on a negative Int.
        return false;
    }
    switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Int: return int_ == other.int_;
    case Type::Uint: return uint_ == other.uint_;
    case Type::Double:
        return double_ == other.double_
            || (std::isnan(double_) && std::isnan(other.double_));
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return members_ == other.members_;
    }
    return false;
}

JsonValue
jsonNumberOrNull(double v)
{
    return std::isfinite(v) ? JsonValue(v) : JsonValue(nullptr);
}

void
jsonRejectUnknownKeys(const JsonValue &object,
                      const std::vector<std::string> &known,
                      const std::string &context)
{
    for (const auto &[key, value] : object.asObject()) {
        (void)value;
        bool found = false;
        for (const std::string &k : known)
            found = found || k == key;
        if (!found)
            throw std::invalid_argument(
                context + ": unknown key \"" + key + "\" (known keys: "
                + jsonJoinQuoted(known) + ")");
    }
}

void
jsonAppendString(std::string &out, const std::string &s)
{
    escapeString(out, s);
}

std::string
jsonJoinQuoted(const std::vector<std::string> &values)
{
    std::string out;
    for (const std::string &v : values)
        out += (out.empty() ? "\"" : ", \"") + v + "\"";
    return out;
}

std::string
jsonFingerprint(const JsonValue &value)
{
    const std::string text = value.dump();
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(buf);
}

} // namespace treevqa
