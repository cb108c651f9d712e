/**
 * @file
 * Minimal JSON tree and recursive-descent parser, shared by the
 * report (de)serializers (sim/report.cc) and the serve daemon's
 * request envelope parsing (sim/serve.cc).
 *
 * Numbers keep their raw source token so integer counters convert
 * exactly (the report round-trip guarantee); strings are decoded.
 * Malformed input is reported through fatal() — i.e. a thrown
 * FatalError — so callers choose between fail-fast (the CLI) and
 * per-request recovery (asResult / the serve daemon's error records).
 */

#ifndef SIQ_COMMON_JSON_HH
#define SIQ_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace siq::json
{

/** One JSON value; object members keep source order. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string token; ///< raw number token or decoded string
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    /** Member lookup; fatal when @p key is absent. */
    const Value &at(const std::string &key) const;

    /** Optional member lookup for schema-evolution keys. */
    const Value *find(const std::string &key) const;

    Value *
    find(const std::string &key)
    {
        return const_cast<Value *>(std::as_const(*this).find(key));
    }

    /// @name Typed accessors; fatal on kind/format mismatch.
    /// @{
    std::uint64_t asU64() const;
    double asDouble() const;
    int asInt() const;
    bool asBool() const;
    const std::string &asString() const;
    /// @}
};

/** Parse one complete JSON document; fatal on malformed input or
 *  trailing bytes. */
Value parse(const std::string &text);

/// @name Whole-token numeric parsing (shared with CSV ingestion).
/// @{

/** strtoull with whole-token validation: garbage fatals, never 0.
 *  Counters are unsigned decimals, so signs (which strtoull would
 *  silently wrap) and overflow are malformed too. */
std::uint64_t parseU64(const std::string &token);

/** strtoll with whole-token validation (config ints may be signed). */
std::int64_t parseI64(const std::string &token);

/** strtod with whole-token and range validation. */
double parseDouble(const std::string &token);

/// @}

/** JSON string literal: quote and escape @p s. */
std::string quote(const std::string &s);

} // namespace siq::json

#endif // SIQ_COMMON_JSON_HH
