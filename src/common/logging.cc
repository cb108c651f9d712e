#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace siq
{

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    throw FatalError(msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace siq
