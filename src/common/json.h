/**
 * @file
 * Minimal JSON reader for the benchmark harness: gate definitions
 * (bench/gates.json) and schema validation of emitted BENCH_*.json
 * documents. The writer side stays in obs/jsonw.h; this is the
 * counterpart parser, kept deliberately small — objects, arrays,
 * strings (with the escapes jsonw emits), numbers, booleans, null.
 *
 * Parse errors carry a byte offset and a one-line reason instead of
 * throwing: callers (CLI tools) want to print and exit, not unwind.
 */

#ifndef CQ_COMMON_JSON_H
#define CQ_COMMON_JSON_H

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cq::json {

class Value;

/** Object keys keep source order (schema checks read nicer). */
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Value() : kind_(Kind::Null) {}
    explicit Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    explicit Value(double d) : kind_(Kind::Number), num_(d) {}
    explicit Value(std::string s)
        : kind_(Kind::String), str_(std::move(s))
    {
    }
    explicit Value(Array a);
    explicit Value(Object o);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; wrong-kind access returns the neutral value
     *  (0 / false / empty) — callers validate kind() first when the
     *  distinction matters. */
    bool asBool() const { return isBool() ? bool_ : false; }
    double asNumber() const { return isNumber() ? num_ : 0.0; }
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Convenience: member as number/string with a fallback. */
    double numberOr(const std::string &key, double dflt) const;
    std::string stringOr(const std::string &key,
                         const std::string &dflt) const;

  private:
    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::shared_ptr<Array> arr_;
    std::shared_ptr<Object> obj_;
};

/**
 * Typed failure class, so callers can distinguish a malformed
 * document from a resource-limit rejection (a deeply nested document
 * must fail as TooDeep, not blow the parser's stack) and from I/O
 * trouble before any byte was parsed.
 */
enum class ParseErrorKind
{
    None,    ///< ok == true
    Syntax,  ///< malformed JSON (bad token, trailing junk, ...)
    TooDeep, ///< nesting exceeded kMaxDepth
    Io,      ///< parseFile could not open/read the file
};

const char *parseErrorKindName(ParseErrorKind kind);

/**
 * Maximum container nesting depth. The parser recurses once per
 * level, so this bounds stack use; 64 is far above anything the
 * repo's writers emit while keeping worst-case recursion a few
 * kilobytes of stack.
 */
inline constexpr int kMaxDepth = 64;

struct ParseResult
{
    bool ok = false;
    Value value;
    std::string error;      ///< one-line reason when !ok
    std::size_t errorAt = 0; ///< byte offset of the failure
    ParseErrorKind errorKind = ParseErrorKind::None;
};

/** Parse a complete JSON document (trailing junk is an error). */
ParseResult parse(const std::string &text);

/** Read @p path and parse it; I/O failure reports via error too. */
ParseResult parseFile(const std::string &path);

} // namespace cq::json

#endif // CQ_COMMON_JSON_H
