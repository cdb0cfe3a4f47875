/**
 * @file
 * Minimal JSON document model, writer and parser. Backs the
 * observability layer: Chrome trace export (common/prof), the run
 * metrics manifest (core/runmeta), the fleet store (fleet/) and the
 * bench/e2e results document. Numbers keep their integer width
 * (counters are exact uint64, not doubles); object member order is
 * preserved so exported documents are deterministic and diffable.
 */

#ifndef WC3D_COMMON_JSON_HH
#define WC3D_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wc3d::json {

/** One JSON value (null/bool/number/string/array/object). */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Unsigned, ///< non-negative integer, exact uint64
        Signed,   ///< negative integer, exact int64
        Double,
        String,
        Array,
        Object,
    };

    Value() = default;

    /** @name Factories */
    /// @{
    static Value null() { return Value(); }
    static Value boolean(bool b);
    static Value number(std::uint64_t v);
    static Value number(std::int64_t v);
    static Value number(int v) { return number(static_cast<std::int64_t>(v)); }
    static Value number(double v);
    static Value str(std::string s);
    static Value array();
    static Value object();
    /// @}

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isNumber() const
    {
        return _type == Type::Unsigned || _type == Type::Signed ||
               _type == Type::Double;
    }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    /** @name Scalar accessors (0/""/false when the type mismatches) */
    /// @{
    bool asBool() const { return _type == Type::Bool && _b; }
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    double asDouble() const;
    const std::string &asString() const { return _s; }
    /// @}

    /** @name Array interface */
    /// @{
    void push(Value v);
    std::size_t size() const { return _arr.size(); }
    const Value &at(std::size_t i) const { return _arr.at(i); }
    const std::vector<Value> &items() const { return _arr; }
    /// @}

    /** @name Object interface (insertion order preserved) */
    /// @{
    /** Set member @p key (replacing an existing member of that name). */
    void set(const std::string &key, Value v);
    /** @return the member called @p key, or nullptr. */
    const Value *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Value>> &members() const
    { return _obj; }
    /// @}

    /**
     * Render to a string. @p indent > 0 pretty-prints with that many
     * spaces per level; 0 emits a compact single line.
     */
    std::string serialize(int indent = 0) const;

  private:
    Type _type = Type::Null;
    bool _b = false;
    std::uint64_t _u = 0;
    std::int64_t _i = 0;
    double _d = 0.0;
    std::string _s;
    std::vector<Value> _arr;
    std::vector<std::pair<std::string, Value>> _obj;
};

/** JSON-escape @p s (quotes not included). */
std::string escape(const std::string &s);

/**
 * Parse @p text into @p out.
 * @return false (with a position-carrying message in @p error when
 * non-null) on malformed input; @p out is untouched then.
 */
bool parse(const std::string &text, Value &out, std::string *error);

/** parse() over the contents of file @p path. */
bool parseFile(const std::string &path, Value &out, std::string *error);

/**
 * Write @p content to @p path atomically and durably (temp file +
 * fsync + rename via the faultio-checked helper in common/fs), so
 * concurrent readers never observe a torn document and short writes /
 * ENOSPC surface as structured errors instead of truncated output.
 */
bool writeFileAtomic(const std::string &path, const std::string &content,
                     std::string *error);

} // namespace wc3d::json

#endif // WC3D_COMMON_JSON_HH
