#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>

#include "common/fs.hh"
#include "common/strutil.hh"

namespace wc3d::json {

Value
Value::boolean(bool b)
{
    Value v;
    v._type = Type::Bool;
    v._b = b;
    return v;
}

Value
Value::number(std::uint64_t n)
{
    Value v;
    v._type = Type::Unsigned;
    v._u = n;
    return v;
}

Value
Value::number(std::int64_t n)
{
    if (n >= 0)
        return number(static_cast<std::uint64_t>(n));
    Value v;
    v._type = Type::Signed;
    v._i = n;
    return v;
}

Value
Value::number(double d)
{
    Value v;
    v._type = Type::Double;
    v._d = d;
    return v;
}

Value
Value::str(std::string s)
{
    Value v;
    v._type = Type::String;
    v._s = std::move(s);
    return v;
}

Value
Value::array()
{
    Value v;
    v._type = Type::Array;
    return v;
}

Value
Value::object()
{
    Value v;
    v._type = Type::Object;
    return v;
}

std::uint64_t
Value::asU64() const
{
    switch (_type) {
      case Type::Unsigned:
        return _u;
      case Type::Signed:
        return _i < 0 ? 0 : static_cast<std::uint64_t>(_i);
      case Type::Double:
        return _d < 0.0 ? 0 : static_cast<std::uint64_t>(_d);
      default:
        return 0;
    }
}

std::int64_t
Value::asI64() const
{
    switch (_type) {
      case Type::Unsigned:
        return static_cast<std::int64_t>(_u);
      case Type::Signed:
        return _i;
      case Type::Double:
        return static_cast<std::int64_t>(_d);
      default:
        return 0;
    }
}

double
Value::asDouble() const
{
    switch (_type) {
      case Type::Unsigned:
        return static_cast<double>(_u);
      case Type::Signed:
        return static_cast<double>(_i);
      case Type::Double:
        return _d;
      default:
        return 0.0;
    }
}

void
Value::push(Value v)
{
    _type = Type::Array;
    _arr.push_back(std::move(v));
}

void
Value::set(const std::string &key, Value v)
{
    _type = Type::Object;
    for (auto &member : _obj) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    _obj.emplace_back(key, std::move(v));
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &member : _obj) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

namespace {

void
serializeInto(const Value &v, std::string &out, int indent, int depth)
{
    auto newline = [&] {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * depth), ' ');
    };

    switch (v.type()) {
      case Value::Type::Null:
        out += "null";
        return;
      case Value::Type::Bool:
        out += v.asBool() ? "true" : "false";
        return;
      case Value::Type::Unsigned:
        out += format("%llu",
                      static_cast<unsigned long long>(v.asU64()));
        return;
      case Value::Type::Signed:
        out += format("%lld", static_cast<long long>(v.asI64()));
        return;
      case Value::Type::Double: {
        double d = v.asDouble();
        // JSON has no inf/nan literals.
        if (!std::isfinite(d)) {
            out += "null";
            return;
        }
        std::string repr = format("%.17g", d);
        // Guarantee the value reads back as a double, not an integer.
        if (repr.find_first_of(".eE") == std::string::npos)
            repr += ".0";
        out += repr;
        return;
      }
      case Value::Type::String:
        out += '"';
        out += escape(v.asString());
        out += '"';
        return;
      case Value::Type::Array: {
        out += '[';
        bool first = true;
        for (const Value &item : v.items()) {
            if (!first)
                out += ',';
            first = false;
            ++depth;
            newline();
            --depth;
            serializeInto(item, out, indent, depth + 1);
        }
        if (!first)
            newline();
        out += ']';
        return;
      }
      case Value::Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &member : v.members()) {
            if (!first)
                out += ',';
            first = false;
            ++depth;
            newline();
            --depth;
            out += '"';
            out += escape(member.first);
            out += "\":";
            if (indent > 0)
                out += ' ';
            serializeInto(member.second, out, indent, depth + 1);
        }
        if (!first)
            newline();
        out += '}';
        return;
      }
    }
}

/** Recursive-descent parser over a bounded input. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : _text(text), _error(error)
    {
    }

    bool
    run(Value &out)
    {
        Value v;
        if (!parseValue(v, 0))
            return false;
        skipWs();
        if (_pos != _text.size())
            return fail("trailing characters after document");
        out = std::move(v);
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &why)
    {
        if (_error)
            *_error = format("json: byte %zu: %s", _pos, why.c_str());
        return false;
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos]))) {
            ++_pos;
        }
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (_text.compare(_pos, n, word) != 0)
            return false;
        _pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (_text[_pos] != '"')
            return fail("expected string");
        ++_pos;
        out.clear();
        while (_pos < _text.size()) {
            char c = _text[_pos];
            if (c == '"') {
                ++_pos;
                return true;
            }
            // RFC 8259: raw control characters must be escaped. The
            // writer escapes them, so rejecting keeps round-trips
            // lossless and the parser strict under fuzzed input.
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c == '\\') {
                if (_pos + 1 >= _text.size())
                    return fail("truncated escape");
                char e = _text[++_pos];
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (_pos + 4 >= _text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        char h = _text[_pos + 1 + k];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    _pos += 4;
                    // UTF-8 encode the BMP code point (surrogate pairs
                    // are stored as-is; trace names are ASCII anyway).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++_pos;
                continue;
            }
            out += c;
            ++_pos;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = _pos;
        bool negative = _text[_pos] == '-';
        if (negative)
            ++_pos;
        bool is_double = false;
        while (_pos < _text.size()) {
            char c = _text[_pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++_pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_double = true;
                ++_pos;
            } else {
                break;
            }
        }
        std::string repr = _text.substr(start, _pos - start);
        if (repr.empty() || repr == "-")
            return fail("malformed number");
        errno = 0;
        if (!is_double) {
            char *end = nullptr;
            if (negative) {
                long long v = std::strtoll(repr.c_str(), &end, 10);
                if (end != repr.c_str() + repr.size() || errno == ERANGE)
                    is_double = true;
                else
                    out = Value::number(static_cast<std::int64_t>(v));
            } else {
                unsigned long long v =
                    std::strtoull(repr.c_str(), &end, 10);
                if (end != repr.c_str() + repr.size() || errno == ERANGE)
                    is_double = true;
                else
                    out = Value::number(static_cast<std::uint64_t>(v));
            }
        }
        if (is_double) {
            errno = 0;
            char *end = nullptr;
            double d = std::strtod(repr.c_str(), &end);
            if (end != repr.c_str() + repr.size())
                return fail("malformed number");
            // Strict: a literal that does not fit a finite double
            // (1e999, ...) is rejected, not silently turned into inf —
            // a fleet-store counter must never round-trip as infinity.
            if (errno == ERANGE || !std::isfinite(d))
                return fail("number out of range");
            out = Value::number(d);
        }
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        char c = _text[_pos];
        if (c == '{') {
            ++_pos;
            Value obj = Value::object();
            skipWs();
            if (_pos < _text.size() && _text[_pos] == '}') {
                ++_pos;
                out = std::move(obj);
                return true;
            }
            while (true) {
                skipWs();
                if (_pos >= _text.size())
                    return fail("unterminated object");
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (_pos >= _text.size() || _text[_pos] != ':')
                    return fail("expected ':' after object key");
                ++_pos;
                Value member;
                if (!parseValue(member, depth + 1))
                    return false;
                obj.set(key, std::move(member));
                skipWs();
                if (_pos >= _text.size())
                    return fail("unterminated object");
                if (_text[_pos] == ',') {
                    ++_pos;
                    continue;
                }
                if (_text[_pos] == '}') {
                    ++_pos;
                    out = std::move(obj);
                    return true;
                }
                return fail("expected ',' or '}' in object");
            }
        }
        if (c == '[') {
            ++_pos;
            Value arr = Value::array();
            skipWs();
            if (_pos < _text.size() && _text[_pos] == ']') {
                ++_pos;
                out = std::move(arr);
                return true;
            }
            while (true) {
                Value item;
                if (!parseValue(item, depth + 1))
                    return false;
                arr.push(std::move(item));
                skipWs();
                if (_pos >= _text.size())
                    return fail("unterminated array");
                if (_text[_pos] == ',') {
                    ++_pos;
                    continue;
                }
                if (_text[_pos] == ']') {
                    ++_pos;
                    out = std::move(arr);
                    return true;
                }
                return fail("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value::str(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return fail("malformed literal");
            out = Value::boolean(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return fail("malformed literal");
            out = Value::boolean(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return fail("malformed literal");
            out = Value::null();
            return true;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber(out);
        return fail("unexpected character");
    }

    const std::string &_text;
    std::string *_error;
    std::size_t _pos = 0;
};

} // namespace

std::string
Value::serialize(int indent) const
{
    std::string out;
    serializeInto(*this, out, indent, 0);
    return out;
}

bool
parse(const std::string &text, Value &out, std::string *error)
{
    return Parser(text, error).run(out);
}

bool
parseFile(const std::string &path, Value &out, std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (error)
            *error = format("cannot open '%s'", path.c_str());
        return false;
    }
    std::string content;
    char buf[8192];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    bool read_ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!read_ok) {
        if (error)
            *error = format("read error on '%s'", path.c_str());
        return false;
    }
    return parse(content, out, error);
}

bool
writeFileAtomic(const std::string &path, const std::string &content,
                std::string *error)
{
    // Delegates to the faultio-checked durable writer so every JSON
    // artifact (metrics, runmeta, fleet index/blobs)
    // gets fsync discipline and structured short-write/ENOSPC errors.
    return wc3d::atomicWriteFile(path, content, error);
}

} // namespace wc3d::json
