/**
 * @file
 * Argument-parsing helpers shared by the treevqa CLIs.
 */

#ifndef TREEVQA_TOOLS_CLI_UTIL_H
#define TREEVQA_TOOLS_CLI_UTIL_H

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace treevqa {

/** Strict positive-integer flag parse: the whole token must be a
 * number >= 1 (no silent strtol prefix acceptance). */
inline bool
parsePositive(const char *text, long &out)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (errno == ERANGE || end == text || *end != '\0' || value < 1)
        return false;
    out = value;
    return true;
}

/** Like parsePositive but 0 is allowed (e.g. "--watch-rounds 0" =
 * run forever). */
inline bool
parseNonNegative(const char *text, long &out)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (errno == ERANGE || end == text || *end != '\0' || value < 0)
        return false;
    out = value;
    return true;
}

/** The executable `name` in this program's own directory (the build
 * tree or install prefix), falling back to a bare PATH lookup. */
inline std::string
siblingBinary(const char *name)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        const std::filesystem::path sibling =
            std::filesystem::path(buf).parent_path() / name;
        std::error_code ec;
        if (std::filesystem::exists(sibling, ec))
            return sibling.string();
    }
    return name;
}

} // namespace treevqa

#endif // TREEVQA_TOOLS_CLI_UTIL_H
