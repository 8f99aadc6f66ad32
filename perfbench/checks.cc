#include "checks.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace colr::perfbench {
namespace {

const std::vector<std::string>& GroupColumns() {
  static const std::vector<std::string> kColumns = {
      "group", "min_x", "min_y", "max_x", "max_y", "sensors", "sampled",
      "value"};
  return kColumns;
}

/// Minimal validating JSON reader (RFC 8259 values), enough to check a
/// reply body without trusting the program's own serializer.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json* Member(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  bool ParseDocument(Json* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
          out->push_back('?');
          break;
        default: return false;
      }
    }
    return false;
  }
  bool Number(double* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    auto digits = [this] {
      const size_t d = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > d;
    };
    if (!digits()) return false;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    *out = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                       nullptr);
    return std::isfinite(*out);
  }
  bool Value(Json* out, int depth) {
    if (depth > 64) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      for (;;) {
        SkipSpace();
        std::string key;
        if (!String(&key)) return false;
        SkipSpace();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        Json v;
        if (!Value(&v, depth + 1)) return false;
        out->members.emplace_back(std::move(key), std::move(v));
        SkipSpace();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == '}') return ++pos_, true;
        if (s_[pos_++] != ',') return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      for (;;) {
        Json v;
        if (!Value(&v, depth + 1)) return false;
        out->items.push_back(std::move(v));
        SkipSpace();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ']') return ++pos_, true;
        if (s_[pos_++] != ',') return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->text);
    }
    if (Literal("null")) return out->type = Json::Type::kNull, true;
    if (Literal("true") || Literal("false")) {
      return out->type = Json::Type::kBool, true;
    }
    out->type = Json::Type::kNumber;
    return Number(&out->number);
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<GroupCount> GroupsOf(const rel::Relation& relation) {
  std::vector<GroupCount> out;
  const int sensors = relation.IndexOf("sensors");
  const int sampled = relation.IndexOf("sampled");
  if (sensors < 0 || sampled < 0) return out;
  out.reserve(relation.rows.size());
  for (const rel::Row& row : relation.rows) {
    out.push_back({row[static_cast<size_t>(sensors)].AsInt(),
                   row[static_cast<size_t>(sampled)].AsInt()});
  }
  return out;
}

std::vector<GroupCount> GroupsOf(const QueryResult& result) {
  std::vector<GroupCount> out;
  out.reserve(result.groups.size());
  for (const GroupResult& g : result.groups) {
    if (g.agg.empty() && g.weight == 0) continue;
    out.push_back({g.weight, g.agg.count});
  }
  return out;
}

std::string ParseGroupReply(std::string_view json,
                            std::vector<GroupCount>* out) {
  Json doc;
  if (!JsonReader(json).ParseDocument(&doc)) return "reply body is not JSON";
  if (doc.type != Json::Type::kObject) return "reply body is not an object";
  const Json* columns = doc.Member("columns");
  const Json* rows = doc.Member("rows");
  if (columns == nullptr || rows == nullptr ||
      columns->type != Json::Type::kArray ||
      rows->type != Json::Type::kArray) {
    return "reply body lacks columns/rows arrays";
  }
  const std::vector<std::string>& want = GroupColumns();
  if (columns->items.size() != want.size()) return "wrong column count";
  for (size_t i = 0; i < want.size(); ++i) {
    if (columns->items[i].type != Json::Type::kString ||
        columns->items[i].text != want[i]) {
      return "unexpected column " + std::to_string(i);
    }
  }
  out->clear();
  for (const Json& row : rows->items) {
    if (row.type != Json::Type::kArray || row.items.size() != want.size() ||
        row.items[5].type != Json::Type::kNumber ||
        row.items[6].type != Json::Type::kNumber) {
      return "malformed group row";
    }
    out->push_back({static_cast<int64_t>(row.items[5].number),
                    static_cast<int64_t>(row.items[6].number)});
  }
  return "";
}

std::string CheckAnswer(const std::vector<GroupCount>& groups,
                        int in_region, bool exact, int64_t failed_probes) {
  int64_t readings = 0;
  for (const GroupCount& g : groups) {
    if (g.sampled > g.sensors || g.sampled < 0) {
      return "group with " + std::to_string(g.sampled) + " readings but " +
             std::to_string(g.sensors) + " sensors";
    }
    readings += g.sampled;
  }
  if (readings > in_region) {
    return std::to_string(readings) + " readings for " +
           std::to_string(in_region) + " sensors in region";
  }
  if (exact && readings + failed_probes != in_region) {
    return "exact answer: " + std::to_string(readings) + " readings + " +
           std::to_string(failed_probes) + " failed probes != " +
           std::to_string(in_region) + " sensors in region";
  }
  return "";
}

}  // namespace colr::perfbench
