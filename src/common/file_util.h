/**
 * @file
 * Shared filesystem primitives for the persistence and distribution
 * layers: whole-file text I/O, atomic (tmp + rename) replacement,
 * durable appends, exclusive creation — the POSIX building block of
 * the work-claim lock protocol (src/dist/work_claim.h) — and the CRC32
 * used to checksum store records and checkpoints.
 *
 * Every syscall loop retries EINTR immediately and other transient
 * errnos (EAGAIN, EBUSY, ENFILE, EMFILE, ESTALE) with bounded
 * exponential backoff, so a flaky or briefly-overloaded filesystem
 * degrades to latency, not to a crashed worker.
 *
 * Every write names its Durability class. A durable write fsyncs the
 * file (and, for an atomic replace, the parent directory after the
 * rename), so a power loss cannot roll a committed result, checkpoint
 * or compacted store back; a best-effort write keeps the atomicity and
 * torn-line sealing but skips both fsyncs — it survives a SIGKILL (the
 * page cache outlives the process) and only a power loss or kernel
 * crash can lose it. All of these paths carry named fault sites
 * (common/fault_injection.h): `file.read`, `file.write_atomic.stage`,
 * `file.write_atomic.open`, `file.write_atomic.fsync`,
 * `file.write_atomic.rename`, `file.write_atomic.diropen`,
 * `file.write_atomic.dirsync`, `file.create_exclusive`,
 * `file.append`, `file.append.fsync`; best-effort writes never reach
 * the fsync sites.
 *
 * Every open, rename and fsync feeds the metrics registry
 * (common/metrics.h): `io.{durable,best_effort,read}_opens`,
 * `io.{durable,best_effort}_renames`, `io.durable_fsyncs` (file and
 * directory fsyncs; best-effort writes make none) and the
 * `io.fsync_ns` latency histogram.
 *
 * All paths are plain std::string; errors surface as std::runtime_error
 * except where a boolean outcome is part of the protocol (a lost
 * O_EXCL race is an answer, not an error).
 */

#ifndef TREEVQA_COMMON_FILE_UTIL_H
#define TREEVQA_COMMON_FILE_UTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace treevqa {

class JsonValue;

/** What a write must survive (see the file comment). */
enum class Durability
{
    /** fsync'd: survives power loss. Results, checkpoints, compacted
     * stores, sweep.json and summary.json. */
    Durable,
    /** Not fsync'd: survives SIGKILL, a power loss may lose the last
     * write. Telemetry (metrics dumps, journals) and lease
     * renewals. */
    BestEffort
};

/** True for errnos worth retrying with backoff (EINTR, EAGAIN, EBUSY,
 * ENFILE, EMFILE, ESTALE). */
bool isTransientErrno(int err);

/** Read a whole file into `out`. Returns false (out untouched) when
 * the file cannot be opened (after transient-errno retries); throws
 * on a read error mid-stream. */
bool readTextFile(const std::string &path, std::string &out);

/**
 * Replace `path` atomically: write a writer-unique sibling temp file
 * (`path.tmp.<pid>.<n>`, unique across processes and across threads
 * of one process), rename it over `path`, and — when `durability` is
 * Durable — fsync the temp file before the rename and the parent
 * directory after it, so neither the bytes nor the directory entry
 * can be lost to a power cut. Readers see either the old or the new
 * content, never a torn mix, in both classes. Throws
 * std::runtime_error on any I/O failure that survives the
 * transient-errno retry loop.
 */
void writeTextFileAtomic(const std::string &path,
                         const std::string &content,
                         Durability durability = Durability::Durable);

/**
 * Append `data` to `path` (creating it if needed), sealing a torn
 * trailing line first — when the existing content does not end in a
 * newline (a previous writer died mid-append), a '\n' is written
 * before `data` so the fragment cannot merge with the new record —
 * then fsync when `durability` is Durable. The JSONL append
 * discipline of ResultStore shards (durable) and event journals
 * (best-effort).
 */
void appendTextDurable(const std::string &path, const std::string &data,
                       Durability durability = Durability::Durable);

/**
 * Create `path` exclusively (O_CREAT|O_EXCL) and write `content`.
 * Returns true when this call created the file — at most one caller
 * across all processes sharing the filesystem wins — and false when
 * the file already existed. Throws on unexpected I/O errors (e.g. a
 * missing parent directory). Not fsynced: claim files are leases, and
 * a lease lost to a crash is exactly what the expiry protocol covers.
 */
bool tryCreateExclusiveText(const std::string &path,
                            const std::string &content);

/**
 * fsync the directory itself so a rename or unlink inside it is
 * durable. Filesystems that cannot fsync directories (EINVAL /
 * ENOTSUP) are silently tolerated; real I/O errors throw after the
 * transient retry loop.
 */
void fsyncDirectory(const std::string &dirPath);

/** CRC-32 (IEEE 802.3, the zlib polynomial) of `data`. */
std::uint32_t crc32(const std::string &data);

/** crc32() as 8 lower-case hex chars — the checksum field format of
 * store records, checkpoints and event-journal lines. */
std::string crc32Hex(const std::string &data);

/**
 * Stamp `record` (a JSON object) with a trailing "crc" member: the
 * crc32Hex of its compact dump without it. The one checksum rule of
 * store records, checkpoints and event-journal lines.
 */
void stampCrc(JsonValue &record);

/**
 * Verify and erase the "crc" member stampCrc wrote, leaving the
 * checksummed record. Returns nullptr when it matched, else the
 * rejection reason: "missing crc" (not an object, or no string "crc"
 * member) or "crc mismatch".
 */
const char *checkAndStripCrc(JsonValue &record);

/**
 * Quarantine one corrupt line of `file`: append the envelope
 * {source, line, reason, data} to `<quarantineDir>/<file name>` with
 * `durability`. Once per (file, line, content) per process, because
 * scan loops revisit a corrupt line many times over its lifetime;
 * returns whether this call was that once. Never throws: a quarantine
 * that cannot be written must not turn a tolerated corruption into a
 * crash.
 */
bool quarantineLine(const std::string &file, std::size_t lineNumber,
                    const std::string &line, const std::string &reason,
                    const std::string &quarantineDir,
                    Durability durability);

/** The regular files in `dir` whose extension is `extension` (e.g.
 * ".jsonl"), as paths sorted ascending, so every reader folds them in
 * the same order; empty when `dir` is missing. */
std::vector<std::string> listSortedFiles(const std::string &dir,
                                         const std::string &extension);

/** Milliseconds since the Unix epoch (system clock). Lease deadlines
 * use this because wall time is the only clock hosts sharing a
 * filesystem have in common; the lease protocol assumes skew is small
 * relative to the lease duration. */
std::int64_t unixTimeMs();

/** "<hostname>-<pid>": a worker identity unique per process on a
 * shared filesystem (the default --worker-id). */
std::string localWorkerId();

/** Copy of `name` with every character outside [A-Za-z0-9._-]
 * replaced by '_' — worker ids and fingerprints become path
 * components, so they must not smuggle separators. */
std::string sanitizeFileToken(const std::string &name);

} // namespace treevqa

#endif // TREEVQA_COMMON_FILE_UTIL_H
