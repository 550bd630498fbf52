#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cq::json {

Value::Value(Array a)
    : kind_(Kind::Array), arr_(std::make_shared<Array>(std::move(a)))
{
}

Value::Value(Object o)
    : kind_(Kind::Object), obj_(std::make_shared<Object>(std::move(o)))
{
}

const std::string &
Value::asString() const
{
    static const std::string kEmpty;
    return isString() ? str_ : kEmpty;
}

const Array &
Value::asArray() const
{
    static const Array kEmpty;
    return isArray() && arr_ ? *arr_ : kEmpty;
}

const Object &
Value::asObject() const
{
    static const Object kEmpty;
    return isObject() && obj_ ? *obj_ : kEmpty;
}

const Value *
Value::find(const std::string &key) const
{
    if (!isObject() || !obj_)
        return nullptr;
    for (const auto &[k, v] : *obj_)
        if (k == key)
            return &v;
    return nullptr;
}

double
Value::numberOr(const std::string &key, double dflt) const
{
    const Value *v = find(key);
    return v != nullptr && v->isNumber() ? v->asNumber() : dflt;
}

std::string
Value::stringOr(const std::string &key, const std::string &dflt) const
{
    const Value *v = find(key);
    return v != nullptr && v->isString() ? v->asString() : dflt;
}

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;
    std::size_t errorAt = 0;
    ParseErrorKind errorKind = ParseErrorKind::None;

    bool fail(const std::string &why,
              ParseErrorKind kind = ParseErrorKind::Syntax)
    {
        if (error.empty()) {
            error = why;
            errorAt = pos;
            errorKind = kind;
        }
        return false;
    }

    void skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return fail(std::string("expected '") + c + "'");
    }

    bool parseValue(Value &out, int depth)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{' || c == '[') {
            // A container at depth d means d containers are already
            // open above it; refusing at the limit (rather than one
            // past it) keeps even empty-container towers bounded, and
            // with them the parser's recursion depth.
            if (depth >= kMaxDepth)
                return fail("nesting deeper than " +
                                std::to_string(kMaxDepth) + " levels",
                            ParseErrorKind::TooDeep);
            return c == '{' ? parseObject(out, depth)
                            : parseArray(out, depth);
        }
        if (c == '"')
            return parseString(out);
        if (c == 't' || c == 'f')
            return parseBool(out);
        if (c == 'n')
            return parseNull(out);
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        return fail("unexpected character");
    }

    bool parseLiteral(const char *lit)
    {
        for (const char *p = lit; *p != '\0'; ++p, ++pos)
            if (pos >= text.size() || text[pos] != *p)
                return fail(std::string("bad literal (want ") + lit +
                            ")");
        return true;
    }

    bool parseNull(Value &out)
    {
        if (!parseLiteral("null"))
            return false;
        out = Value();
        return true;
    }

    bool parseBool(Value &out)
    {
        if (text[pos] == 't') {
            if (!parseLiteral("true"))
                return false;
            out = Value(true);
        } else {
            if (!parseLiteral("false"))
                return false;
            out = Value(false);
        }
        return true;
    }

    bool parseNumber(Value &out)
    {
        // Walk the JSON number grammar first: strtod is laxer than
        // JSON (hex, leading zeros, "inf") and must not decide what
        // we accept.
        const std::size_t start = pos;
        const auto digit = [&] {
            return pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9';
        };
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        if (!digit())
            return fail("bad number");
        if (text[pos] == '0')
            ++pos; // a leading zero must stand alone
        else
            while (digit())
                ++pos;
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (!digit())
                return fail("bad number");
            while (digit())
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (!digit())
                return fail("bad number");
            while (digit())
                ++pos;
        }
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(text.c_str() + start, &end);
        if (end != text.c_str() + pos || errno == ERANGE) {
            pos = start;
            return fail("bad number");
        }
        out = Value(v);
        return true;
    }

    bool parseString(Value &out)
    {
        std::string s;
        if (!parseStringRaw(s))
            return false;
        out = Value(std::move(s));
        return true;
    }

    bool parseStringRaw(std::string &s)
    {
        if (!consume('"'))
            return false;
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail("dangling escape");
                const char e = text[pos];
                switch (e) {
                  case '"':  s += '"'; break;
                  case '\\': s += '\\'; break;
                  case '/':  s += '/'; break;
                  case 'b':  s += '\b'; break;
                  case 'f':  s += '\f'; break;
                  case 'n':  s += '\n'; break;
                  case 'r':  s += '\r'; break;
                  case 't':  s += '\t'; break;
                  case 'u': {
                    if (pos + 4 >= text.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 1; i <= 4; ++i) {
                        const char h = text[pos + i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    pos += 4;
                    // UTF-8 encode (no surrogate pairing; jsonw only
                    // emits \u00xx control escapes).
                    if (cp < 0x80) {
                        s += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        s += static_cast<char>(0xC0 | (cp >> 6));
                        s += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        s += static_cast<char>(0xE0 | (cp >> 12));
                        s += static_cast<char>(0x80 |
                                               ((cp >> 6) & 0x3F));
                        s += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++pos;
            } else {
                s += c;
                ++pos;
            }
        }
        return fail("unterminated string");
    }

    bool parseArray(Value &out, int depth)
    {
        if (!consume('['))
            return false;
        Array a;
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            out = Value(std::move(a));
            return true;
        }
        while (true) {
            Value v;
            if (!parseValue(v, depth + 1))
                return false;
            a.push_back(std::move(v));
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (!consume(']'))
                return false;
            out = Value(std::move(a));
            return true;
        }
    }

    bool parseObject(Value &out, int depth)
    {
        if (!consume('{'))
            return false;
        Object o;
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            out = Value(std::move(o));
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseStringRaw(key))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            Value v;
            if (!parseValue(v, depth + 1))
                return false;
            o.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (!consume('}'))
                return false;
            out = Value(std::move(o));
            return true;
        }
    }
};

} // namespace

const char *
parseErrorKindName(ParseErrorKind kind)
{
    switch (kind) {
      case ParseErrorKind::None:    return "none";
      case ParseErrorKind::Syntax:  return "syntax";
      case ParseErrorKind::TooDeep: return "tooDeep";
      case ParseErrorKind::Io:      return "io";
    }
    return "?";
}

ParseResult
parse(const std::string &text)
{
    Parser p{text, 0, {}, 0, ParseErrorKind::None};
    ParseResult r;
    if (!p.parseValue(r.value, 0)) {
        r.error = p.error;
        r.errorAt = p.errorAt;
        r.errorKind = p.errorKind;
        return r;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        r.error = "trailing characters after document";
        r.errorAt = p.pos;
        r.errorKind = ParseErrorKind::Syntax;
        return r;
    }
    r.ok = true;
    return r;
}

ParseResult
parseFile(const std::string &path)
{
    ParseResult r;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        r.error = "cannot open '" + path + "'";
        r.errorKind = ParseErrorKind::Io;
        return r;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk) {
        r.error = "read error on '" + path + "'";
        r.errorKind = ParseErrorKind::Io;
        return r;
    }
    return parse(text);
}

} // namespace cq::json
