#include "common/file_util.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "common/json.h"
#include "common/metrics.h"

namespace treevqa {

namespace {

/** The io.* instruments (see the header comment). */
struct IoMetrics
{
    Counter &durableOpens;
    Counter &bestEffortOpens;
    Counter &readOpens;
    Counter &durableRenames;
    Counter &bestEffortRenames;
    Counter &durableFsyncs;
    Histogram &fsyncNs;

    Counter &
    opens(Durability durability)
    {
        return durability == Durability::Durable ? durableOpens
                                                 : bestEffortOpens;
    }
    Counter &
    renames(Durability durability)
    {
        return durability == Durability::Durable ? durableRenames
                                                 : bestEffortRenames;
    }
};

IoMetrics &
ioMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static IoMetrics m{reg.counter("io.durable_opens"),
                       reg.counter("io.best_effort_opens"),
                       reg.counter("io.read_opens"),
                       reg.counter("io.durable_renames"),
                       reg.counter("io.best_effort_renames"),
                       reg.counter("io.durable_fsyncs"),
                       reg.histogram("io.fsync_ns")};
    return m;
}

/** One real fsync(2), counted and timed. */
int
timedFsync(int fd)
{
    const auto start = std::chrono::steady_clock::now();
    const int rc = ::fsync(fd);
    ioMetrics().fsyncNs.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    ioMetrics().durableFsyncs.inc();
    return rc;
}

/** Bounded exponential backoff for transient errnos: EINTR retries
 * immediately, the rest wait 1, 2, 4, ... ms up to six retries (~63 ms
 * worst case) — long enough to ride out a busy network filesystem,
 * short enough that a genuinely broken path fails promptly. */
constexpr int kMaxTransientRetries = 6;

bool
backoffRetry(int err, int &attempt)
{
    if (!isTransientErrno(err) || attempt >= kMaxTransientRetries)
        return false;
    if (err != EINTR)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1ll << attempt));
    ++attempt;
    return true;
}

[[noreturn]] void
throwErrno(const std::string &what, int err)
{
    throw std::runtime_error(what + ": " + std::strerror(err));
}

/** open(2) with fault injection, EINTR retry and transient backoff.
 * Returns -1 with errno set once the retry budget is exhausted. */
int
openRetry(const char *site, const std::string &path, int flags,
          Counter &opens, mode_t mode = 0644)
{
    int attempt = 0;
    for (;;) {
        int fd;
        if (const FaultHit hit = FAULT_POINT(site);
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            fd = -1;
        } else {
            fd = ::open(path.c_str(), flags, mode);
            opens.inc();
        }
        if (fd >= 0)
            return fd;
        if (!backoffRetry(errno, attempt))
            return -1;
    }
}

/** Full write loop (EINTR-retried). Throws on failure, leaving the fd
 * open for the caller's cleanup. */
void
writeFully(int fd, const std::string &path, const char *data,
           std::size_t size)
{
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::write(fd, data + written, size - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("file: write to " + path + " failed", errno);
        }
        written += static_cast<std::size_t>(n);
    }
}

/** fsync(2) with fault injection and transient backoff. */
void
fsyncRetry(const char *site, int fd, const std::string &path)
{
    int attempt = 0;
    for (;;) {
        int rc;
        if (const FaultHit hit = FAULT_POINT(site);
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            rc = -1;
        } else {
            rc = timedFsync(fd);
        }
        if (rc == 0)
            return;
        if (!backoffRetry(errno, attempt))
            throwErrno("file: fsync of " + path + " failed", errno);
    }
}

} // namespace

bool
isTransientErrno(int err)
{
    switch (err) {
      case EINTR:
      case EAGAIN:
      case EBUSY:
      case ENFILE:
      case EMFILE:
      case ESTALE:
        return true;
      default:
        return false;
    }
}

bool
readTextFile(const std::string &path, std::string &out)
{
    const int fd =
        openRetry("file.read", path, O_RDONLY, ioMetrics().readOpens);
    if (fd < 0)
        return false;
    std::string buffer;
    std::array<char, 65536> chunk;
    for (;;) {
        const ssize_t n = ::read(fd, chunk.data(), chunk.size());
        if (n > 0) {
            buffer.append(chunk.data(),
                          static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            break;
        if (errno == EINTR)
            continue;
        const int err = errno;
        ::close(fd);
        throwErrno("file: read failed: " + path, err);
    }
    ::close(fd);
    out = std::move(buffer);
    return true;
}

void
writeTextFileAtomic(const std::string &path, const std::string &content,
                    Durability durability)
{
    // The temp name is unique per writer — pid across processes, a
    // counter across threads of one process (concurrent in-process
    // daemons can compact the same store) — so staging copies never
    // clobber each other; the rename at the end is the single atomic
    // commit point.
    static std::atomic<unsigned long> stage_counter{0};
    const std::string tmp = path + ".tmp."
        + std::to_string(static_cast<long>(::getpid())) + "."
        + std::to_string(stage_counter.fetch_add(1));

    const char *stage_data = content.data();
    std::size_t stage_size = content.size();
    if (const FaultHit hit = FAULT_POINT("file.write_atomic.stage")) {
        if (hit.action == FaultAction::FailErrno)
            throwErrno("file: cannot write " + tmp, hit.err);
        if (hit.action == FaultAction::TornWrite)
            stage_size = hit.tornPrefix(stage_size);
    }

    const bool durable = durability == Durability::Durable;
    const int fd =
        openRetry("file.write_atomic.open", tmp,
                  O_CREAT | O_TRUNC | O_WRONLY,
                  ioMetrics().opens(durability));
    if (fd < 0)
        throwErrno("file: cannot write " + tmp, errno);
    try {
        writeFully(fd, tmp, stage_data, stage_size);
        // Durable: fsync before rename, so the rename never makes
        // visible a file whose bytes are still only in the page cache.
        if (durable)
            fsyncRetry("file.write_atomic.fsync", fd, tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);

    int attempt = 0;
    for (;;) {
        int rc;
        if (const FaultHit hit =
                FAULT_POINT("file.write_atomic.rename");
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            rc = -1;
        } else {
            rc = std::rename(tmp.c_str(), path.c_str());
            ioMetrics().renames(durability).inc();
        }
        if (rc == 0)
            break;
        if (!backoffRetry(errno, attempt)) {
            const int err = errno;
            ::unlink(tmp.c_str());
            throwErrno("file: rename to " + path + " failed", err);
        }
    }

    // Durable: fsync the parent directory after rename so the new
    // directory entry (and the unlink of the replaced file) is too.
    if (durable)
        fsyncDirectory(
            std::filesystem::path(path).parent_path().string());
}

void
appendTextDurable(const std::string &path, const std::string &data,
                  Durability durability)
{
    // O_RDWR (not O_WRONLY) so the torn-line probe below can pread the
    // current last byte through the same descriptor.
    const int fd = openRetry("file.append", path,
                             O_RDWR | O_CREAT | O_APPEND,
                             ioMetrics().opens(durability));
    if (fd < 0)
        throwErrno("file: cannot append to " + path, errno);
    try {
        // A kill mid-append leaves a torn fragment without a newline;
        // sealing it first keeps the new record on its own line
        // instead of merging with (and corrupting) the fragment.
        const off_t size = ::lseek(fd, 0, SEEK_END);
        if (size > 0) {
            char last = '\n';
            if (::pread(fd, &last, 1, size - 1) == 1 && last != '\n')
                writeFully(fd, path, "\n", 1);
        }
        writeFully(fd, path, data.data(), data.size());
        if (durability == Durability::Durable)
            fsyncRetry("file.append.fsync", fd, path);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
}

bool
tryCreateExclusiveText(const std::string &path,
                       const std::string &content)
{
    const char *data = content.data();
    std::size_t size = content.size();
    int fd;
    {
        int attempt = 0;
        for (;;) {
            if (const FaultHit hit =
                    FAULT_POINT("file.create_exclusive");
                hit.action == FaultAction::FailErrno) {
                errno = hit.err;
                fd = -1;
            } else {
                if (hit.action == FaultAction::TornWrite)
                    size = hit.tornPrefix(size);
                fd = ::open(path.c_str(),
                            O_CREAT | O_EXCL | O_WRONLY, 0644);
                ioMetrics().bestEffortOpens.inc();
            }
            if (fd >= 0)
                break;
            if (errno == EEXIST)
                return false;
            if (!backoffRetry(errno, attempt))
                throwErrno("file: exclusive create of " + path
                               + " failed",
                           errno);
        }
    }
    // One write() call: the only observable intermediate state is the
    // empty just-created file, and only for the instant before this.
    try {
        writeFully(fd, path, data, size);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    return true;
}

void
fsyncDirectory(const std::string &dirPath)
{
    const std::string dir = dirPath.empty() ? "." : dirPath;
    const int fd =
        openRetry("file.write_atomic.diropen", dir,
                  O_RDONLY | O_DIRECTORY, ioMetrics().durableOpens);
    if (fd < 0) {
        // A directory we just successfully renamed into but cannot
        // re-open read-only is exotic enough to surface.
        throwErrno("file: cannot open directory " + dir, errno);
    }
    int attempt = 0;
    for (;;) {
        int rc;
        if (const FaultHit hit =
                FAULT_POINT("file.write_atomic.dirsync");
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            rc = -1;
        } else {
            rc = timedFsync(fd);
        }
        if (rc == 0)
            break;
        // Filesystems without directory fsync answer EINVAL/ENOTSUP;
        // durability there is whatever the mount offers.
        if (errno == EINVAL || errno == ENOTSUP || errno == EBADF)
            break;
        if (!backoffRetry(errno, attempt)) {
            const int err = errno;
            ::close(fd);
            throwErrno("file: fsync of directory " + dir + " failed",
                       err);
        }
    }
    ::close(fd);
}

namespace {

/** Slicing-by-8 tables for the reflected IEEE 802.3 polynomial
 * 0xedb88320 (the zlib CRC), built once: table[0] is the classic
 * byte-at-a-time table, table[k] advances a byte through k more zero
 * bytes, so eight lookups fold eight input bytes per step. */
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

const Crc32Tables &
crc32Tables()
{
    static const Crc32Tables tables = [] {
        Crc32Tables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
        return t;
    }();
    return tables;
}

/** Little-endian 32-bit load (one mov on x86). */
std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0])
        | static_cast<std::uint32_t>(p[1]) << 8
        | static_cast<std::uint32_t>(p[2]) << 16
        | static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const std::string &data)
{
    const Crc32Tables &t = crc32Tables();
    const auto *p = reinterpret_cast<const unsigned char *>(data.data());
    std::size_t n = data.size();
    std::uint32_t crc = 0xffffffffu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ crc;
        const std::uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu]
            ^ t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24]
            ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu]
            ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::string
crc32Hex(const std::string &data)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    const std::uint32_t crc = crc32(data);
    std::string out(8, '0');
    for (int i = 7, shift = 0; i >= 0; --i, shift += 4)
        out[static_cast<std::size_t>(i)] = kDigits[(crc >> shift) & 0xfu];
    return out;
}

void
stampCrc(JsonValue &record)
{
    // Appended last, so erasing it restores the exact checksummed
    // bytes (JsonValue preserves member order).
    record.set("crc", JsonValue(crc32Hex(record.dump())));
}

const char *
checkAndStripCrc(JsonValue &record)
{
    const JsonValue *crc = record.isObject() ? record.find("crc")
                                             : nullptr;
    if (crc == nullptr || !crc->isString())
        return "missing crc";
    const std::string expected = crc->asString();
    record.erase("crc");
    return crc32Hex(record.dump()) == expected ? nullptr
                                               : "crc mismatch";
}

bool
quarantineLine(const std::string &file, std::size_t lineNumber,
               const std::string &line, const std::string &reason,
               const std::string &quarantineDir, Durability durability)
{
    static std::mutex mutex;
    static std::set<std::string> seen;
    const std::string key = file + ":" + std::to_string(lineNumber)
        + ":" + crc32Hex(line);
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!seen.insert(key).second)
            return false;
    }
    std::fprintf(stderr,
                 "treevqa: quarantining corrupt line %s:%zu (%s)\n",
                 file.c_str(), lineNumber, reason.c_str());
    try {
        std::filesystem::create_directories(quarantineDir);
        JsonValue envelope = JsonValue::object();
        envelope.set("source", JsonValue(file));
        envelope.set("line",
                     JsonValue(static_cast<std::int64_t>(lineNumber)));
        envelope.set("reason", JsonValue(reason));
        envelope.set("data", JsonValue(line));
        appendTextDurable(
            (std::filesystem::path(quarantineDir)
             / std::filesystem::path(file).filename())
                .string(),
            envelope.dump() + "\n", durability);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "treevqa: quarantine of %s:%zu failed (%s)\n",
                     file.c_str(), lineNumber, e.what());
    }
    return true;
}

std::vector<std::string>
listSortedFiles(const std::string &dir, const std::string &extension)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file()
            && entry.path().extension() == extension)
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::int64_t
unixTimeMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

std::string
localWorkerId()
{
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) != 0)
        std::snprintf(host, sizeof(host), "host");
    return sanitizeFileToken(std::string(host)) + "-"
        + std::to_string(static_cast<long>(::getpid()));
}

std::string
sanitizeFileToken(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '.' || c == '_'
            || c == '-';
        if (!ok)
            c = '_';
    }
    return out;
}

} // namespace treevqa
