/**
 * @file
 * Minimal JSON helpers shared by every component that renders JSON by
 * hand (the tracer, the network scheduler, the evaluation engine) and,
 * since the SearchDriver refactor, a small recursive-descent *reader*
 * (JsonValue/parseJson) used to load search checkpoints and stop-policy
 * files. Centralizing the escaping guarantees that a name containing a
 * quote, a backslash, or a control character can never corrupt an
 * emitted document. The escape helper stays header-only so the
 * bottom-most layers (obs) can use it without a link dependency; the
 * reader lives in json.cc.
 */

#ifndef SUNSTONE_COMMON_JSON_HH
#define SUNSTONE_COMMON_JSON_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace sunstone {

/**
 * Escapes a string for embedding inside a JSON string literal: quotes,
 * backslashes, and all control characters below 0x20 (newline and tab as
 * the usual two-character sequences, the rest as \\u00XX).
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * A parsed JSON document node. Numbers keep their raw source text so
 * 64-bit integers (RNG cursors, eval counters) round-trip exactly
 * instead of passing through a double.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    /** Raw source text of a Number (for exact integer parsing). */
    std::string raw;
    /** Decoded payload of a String. */
    std::string str;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** @return the named object field, or nullptr when absent. */
    const JsonValue *find(const std::string &name) const;

    /** @return the number as int64 (exact via raw text) when it is an
     *  integer in int64 range, else `dflt`. */
    std::int64_t asInt(std::int64_t dflt = 0) const;

    /** @return the number as double, else `dflt`. */
    double asDouble(double dflt = 0) const;

    /** @return the string payload, else `dflt`. */
    std::string asString(const std::string &dflt = {}) const;

    /** @return the bool payload, else `dflt`. */
    bool asBool(bool dflt = false) const;

    /**
     * @return a uint64 parsed from a "0x..." hex string payload (how the
     * checkpoint serializes RNG cursors and fingerprints), else `dflt`.
     */
    std::uint64_t asHexU64(std::uint64_t dflt = 0) const;

    /**
     * Re-renders this value as JSON text. Numbers re-emit their raw
     * source text, so integers and doubles round-trip exactly.
     */
    std::string dump() const;
};

/**
 * Parses one JSON document (trailing whitespace allowed, anything else
 * after the document is an error).
 *
 * @param err optional; receives a message with a byte offset on failure
 * @return false on malformed input
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *err = nullptr);

/** Formats a uint64 as a "0x..." hex JSON string (quotes included). */
std::string jsonHexU64(std::uint64_t v);

/**
 * Formats a double so it round-trips bit-exactly through parseJson
 * (max_digits10 precision; non-finite values become null).
 */
std::string jsonDouble(double v);

} // namespace sunstone

#endif // SUNSTONE_COMMON_JSON_HH
