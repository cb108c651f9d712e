/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * panic() is for internal invariant violations (simulator bugs); it
 * aborts. fatal() is for user errors (bad configuration, impossible
 * requests); it throws FatalError so tests and embedding applications
 * can recover. warn() and inform() print status without stopping.
 */

#ifndef SIQ_COMMON_LOGGING_HH
#define SIQ_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace siq
{

/** Exception thrown by fatal(): a user-level, recoverable error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail
{

/** Fold any streamable argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: something that should never happen happened. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl("?", 0, detail::concat(std::forward<Args>(args)...));
}

/** Stop with a user-level error (bad config, invalid argument). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a warning; the simulation continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print an informational message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace siq

/**
 * Internal-invariant check that stays on in release builds. On failure
 * it panics with the stringified condition and location.
 */
#define SIQ_ASSERT(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::siq::detail::panicImpl(__FILE__, __LINE__,                 \
                ::siq::detail::concat("assertion failed: " #cond " ",    \
                                      ##__VA_ARGS__));                   \
        }                                                                \
    } while (0)

#endif // SIQ_COMMON_LOGGING_HH
