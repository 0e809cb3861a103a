/**
 * @file
 * Recursive-descent JSON reader backing JsonValue/parseJson. Scope is
 * deliberately small — enough of RFC 8259 for the documents this
 * repository writes itself (checkpoints, stats files): no \uXXXX
 * surrogate pairs (escapes decode to the raw code unit clamped to one
 * byte), no duplicate-key policing, 256-deep nesting cap.
 */

#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/parse.hh"

namespace sunstone {

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;
    int depth = 0;

    static constexpr int kMaxDepth = 256;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &msg)
    {
        if (err.empty()) {
            std::ostringstream os;
            os << msg << " at byte " << pos;
            err = os.str();
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    expect(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail("bad literal");
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= text.size())
                return fail("dangling escape");
            char e = text[pos++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned v = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos + i];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                pos += 4;
                // We only ever emit \u00XX (jsonEscape); decode the low
                // byte and drop anything wider rather than building a
                // UTF-8 encoder nothing needs.
                out += static_cast<char>(v & 0xff);
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos == start || (pos == start + 1 && text[start] == '-'))
            return fail("bad number");
        out.kind = JsonValue::Kind::Number;
        out.raw = text.substr(start, pos - start);
        out.number = std::strtod(out.raw.c_str(), nullptr);
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        bool ok = false;
        switch (text[pos]) {
        case '{': {
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                ok = true;
                break;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.fields.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (!expect('}'))
                    return false;
                ok = true;
                break;
            }
            break;
        }
        case '[': {
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                ok = true;
                break;
            }
            while (true) {
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.items.push_back(std::move(v));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (!expect(']'))
                    return false;
                ok = true;
                break;
            }
            break;
        }
        case '"':
            out.kind = JsonValue::Kind::String;
            ok = parseString(out.str);
            break;
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            ok = literal("true", 4);
            break;
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            ok = literal("false", 5);
            break;
        case 'n':
            out.kind = JsonValue::Kind::Null;
            ok = literal("null", 4);
            break;
        default:
            ok = parseNumber(out);
            break;
        }
        --depth;
        return ok;
    }
};

} // anonymous namespace

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : fields)
        if (k == name)
            return &v;
    return nullptr;
}

std::int64_t
JsonValue::asInt(std::int64_t dflt) const
{
    if (kind != Kind::Number)
        return dflt;
    std::int64_t v = 0;
    if (tryParseInt64(raw, v))
        return v;
    // Other spellings ("1e3", "2.0") count when they name an int64
    // exactly; 2^63 is the first double past the range.
    if (std::trunc(number) != number || number < -0x1p63 ||
        number >= 0x1p63)
        return dflt;
    return static_cast<std::int64_t>(number);
}

double
JsonValue::asDouble(double dflt) const
{
    return kind == Kind::Number ? number : dflt;
}

std::string
JsonValue::asString(const std::string &dflt) const
{
    return kind == Kind::String ? str : dflt;
}

bool
JsonValue::asBool(bool dflt) const
{
    return kind == Kind::Bool ? boolean : dflt;
}

std::uint64_t
JsonValue::asHexU64(std::uint64_t dflt) const
{
    if (kind != Kind::String || str.size() < 3 || str[0] != '0' ||
        (str[1] != 'x' && str[1] != 'X'))
        return dflt;
    std::uint64_t v = 0;
    for (std::size_t i = 2; i < str.size(); ++i) {
        char c = str[i];
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            v |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            return dflt;
    }
    return v;
}

std::string
JsonValue::dump() const
{
    std::ostringstream os;
    switch (kind) {
    case Kind::Null:
        os << "null";
        break;
    case Kind::Bool:
        os << (boolean ? "true" : "false");
        break;
    case Kind::Number:
        os << raw;
        break;
    case Kind::String:
        os << '"' << jsonEscape(str) << '"';
        break;
    case Kind::Array:
        os << "[";
        for (std::size_t i = 0; i < items.size(); ++i)
            os << (i ? ", " : "") << items[i].dump();
        os << "]";
        break;
    case Kind::Object:
        os << "{";
        for (std::size_t i = 0; i < fields.size(); ++i)
            os << (i ? ", " : "") << '"' << jsonEscape(fields[i].first)
               << "\": " << fields[i].second.dump();
        os << "}";
        break;
    }
    return os.str();
}

bool
parseJson(const std::string &text, JsonValue &out, std::string *err)
{
    Parser p(text);
    out = JsonValue{};
    if (!p.parseValue(out)) {
        if (err)
            *err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err) {
            std::ostringstream os;
            os << "trailing content at byte " << p.pos;
            *err = os.str();
        }
        return false;
    }
    return true;
}

std::string
jsonHexU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace sunstone
