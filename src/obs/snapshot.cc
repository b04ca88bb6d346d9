#include "obs/snapshot.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "obs/export.h"

namespace pdm::obs {

namespace {

void AppendQuoted(std::string* out, std::string_view text) {
  *out += '"';
  AppendJsonEscaped(out, text);
  *out += '"';
}

/// %.17g round-trips every double exactly; inf/NaN never occur here
/// (instrument values are finite by construction).
void AppendNumber(std::string* out, double value) {
  *out += StrFormat("%.17g", value);
}

void AppendLabelsJson(std::string* out, const LabelSet& labels) {
  *out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) *out += ',';
    first = false;
    AppendQuoted(out, key);
    *out += ':';
    AppendQuoted(out, value);
  }
  *out += '}';
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for SnapshotToJson's output shape
// (objects, arrays, strings, finite numbers, true/false/null). Unknown
// object keys are skipped, so the format can grow fields compatibly.

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool error() const { return error_; }
  const std::string& message() const { return message_; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    if (!Consume(c)) Fail(StrFormat("expected '%c' at offset %zu", c, pos_));
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  std::string ParseString() {
    SkipWs();
    std::string out;
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail(StrFormat("expected string at offset %zu", pos_));
      return out;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return out;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else { Fail("bad \\u escape"); return out; }
          }
          // The writer only emits \u for control characters; decode the
          // low byte and keep anything else as '?' (never produced).
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          Fail(StrFormat("bad escape '\\%c'", esc));
          return out;
      }
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  double ParseNumber() {
    SkipWs();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      Fail(StrFormat("expected number at offset %zu", pos_));
      return 0;
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      Fail(StrFormat("bad number '%s'", token.c_str()));
      return 0;
    }
    return value;
  }

  /// Skips one complete value of any type (for unknown keys).
  void SkipValue() {
    SkipWs();
    if (error_ || pos_ >= text_.size()) return;
    char c = text_[pos_];
    if (c == '"') {
      ParseString();
    } else if (c == '{') {
      ++pos_;
      if (Consume('}')) return;
      for (;;) {
        ParseString();
        Expect(':');
        SkipValue();
        if (error_) return;
        if (Consume('}')) return;
        Expect(',');
        if (error_) return;
      }
    } else if (c == '[') {
      ++pos_;
      if (Consume(']')) return;
      for (;;) {
        SkipValue();
        if (error_) return;
        if (Consume(']')) return;
        Expect(',');
        if (error_) return;
      }
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (pos_ < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    } else {
      ParseNumber();
    }
  }

  /// Iterates the members of one object: calls fn(key) positioned at the
  /// value; fn must consume it (or the reader errors out).
  template <typename Fn>
  void ParseObject(Fn&& fn) {
    Expect('{');
    if (error_) return;
    if (Consume('}')) return;
    for (;;) {
      std::string key = ParseString();
      Expect(':');
      if (error_) return;
      fn(key);
      if (error_) return;
      if (Consume('}')) return;
      Expect(',');
      if (error_) return;
    }
  }

  template <typename Fn>
  void ParseArray(Fn&& fn) {
    Expect('[');
    if (error_) return;
    if (Consume(']')) return;
    for (;;) {
      fn();
      if (error_) return;
      if (Consume(']')) return;
      Expect(',');
      if (error_) return;
    }
  }

  void Fail(std::string message) {
    if (!error_) {
      error_ = true;
      message_ = std::move(message);
    }
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  bool error_ = false;
  std::string message_;
};

LabelSet ParseLabelsObject(JsonReader* reader) {
  LabelSet labels;
  reader->ParseObject([&](const std::string& key) {
    labels.emplace_back(key, reader->ParseString());
  });
  return labels;
}

}  // namespace

MetricsSnapshot CaptureMetricsSnapshot(std::string label) {
  const MetricsRegistry& registry = MetricsRegistry::Global();
  MetricsSnapshot snapshot;
  snapshot.label = std::move(label);
  snapshot.counters = registry.CounterSnapshots();
  snapshot.gauges = registry.GaugeSnapshots();
  snapshot.labeled_counters = registry.LabeledCounterSnapshots();
  snapshot.log_histograms = registry.LogHistogramSnapshots();
  return snapshot;
}

std::string SnapshotToJson(const MetricsSnapshot& snapshot) {
  std::string out;
  out += StrFormat("{\n\"version\":%d,\n\"label\":", snapshot.version);
  AppendQuoted(&out, snapshot.label);
  out += ",\n\"counters\":[";
  bool first = true;
  for (const CounterSnapshot& c : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    out += "\n {\"name\":";
    AppendQuoted(&out, c.name);
    out += StrFormat(",\"value\":%llu}",
                     static_cast<unsigned long long>(c.value));
  }
  out += "],\n\"gauges\":[";
  first = true;
  for (const GaugeSnapshot& g : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    out += "\n {\"name\":";
    AppendQuoted(&out, g.name);
    out += StrFormat(",\"value\":%lld}", static_cast<long long>(g.value));
  }
  out += "],\n\"labeled_counters\":[";
  first = true;
  for (const LabeledCounterSnapshot& c : snapshot.labeled_counters) {
    if (!first) out += ',';
    first = false;
    out += "\n {\"name\":";
    AppendQuoted(&out, c.name);
    out += ",\"labels\":";
    AppendLabelsJson(&out, c.labels);
    out += StrFormat(",\"value\":%llu}",
                     static_cast<unsigned long long>(c.value));
  }
  out += "],\n\"log_histograms\":[";
  first = true;
  for (const LogHistogramSnapshot& h : snapshot.log_histograms) {
    if (!first) out += ',';
    first = false;
    out += "\n {\"name\":";
    AppendQuoted(&out, h.name);
    out += ",\"labels\":";
    AppendLabelsJson(&out, h.labels);
    out += StrFormat(",\"count\":%llu",
                     static_cast<unsigned long long>(h.total_count));
    const struct { const char* key; double value; } fields[] = {
        {"sum", h.sum}, {"min", h.min}, {"max", h.max},   {"p50", h.p50},
        {"p90", h.p90}, {"p99", h.p99}, {"p999", h.p999},
    };
    for (const auto& field : fields) {
      out += StrFormat(",\"%s\":", field.key);
      AppendNumber(&out, field.value);
    }
    out += '}';
  }
  out += "]\n}\n";
  return out;
}

Status WriteSnapshotJsonFile(const std::string& path,
                             const MetricsSnapshot& snapshot) {
  std::string json = SnapshotToJson(snapshot);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int closed = std::fclose(f);
  if (written != json.size() || closed != 0) {
    return Status::Internal(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<MetricsSnapshot> ParseSnapshotJson(std::string_view json) {
  JsonReader reader(json);
  MetricsSnapshot snapshot;
  snapshot.version = 0;
  reader.ParseObject([&](const std::string& key) {
    if (key == "version") {
      snapshot.version = static_cast<int>(reader.ParseNumber());
    } else if (key == "label") {
      snapshot.label = reader.ParseString();
    } else if (key == "counters") {
      reader.ParseArray([&] {
        CounterSnapshot c;
        reader.ParseObject([&](const std::string& field) {
          if (field == "name") c.name = reader.ParseString();
          else if (field == "value") c.value = static_cast<uint64_t>(reader.ParseNumber());
          else reader.SkipValue();
        });
        snapshot.counters.push_back(std::move(c));
      });
    } else if (key == "gauges") {
      reader.ParseArray([&] {
        GaugeSnapshot g;
        reader.ParseObject([&](const std::string& field) {
          if (field == "name") g.name = reader.ParseString();
          else if (field == "value") g.value = static_cast<int64_t>(reader.ParseNumber());
          else reader.SkipValue();
        });
        snapshot.gauges.push_back(std::move(g));
      });
    } else if (key == "labeled_counters") {
      reader.ParseArray([&] {
        LabeledCounterSnapshot c;
        reader.ParseObject([&](const std::string& field) {
          if (field == "name") c.name = reader.ParseString();
          else if (field == "labels") c.labels = ParseLabelsObject(&reader);
          else if (field == "value") c.value = static_cast<uint64_t>(reader.ParseNumber());
          else reader.SkipValue();
        });
        snapshot.labeled_counters.push_back(std::move(c));
      });
    } else if (key == "log_histograms") {
      reader.ParseArray([&] {
        LogHistogramSnapshot h;
        reader.ParseObject([&](const std::string& field) {
          if (field == "name") h.name = reader.ParseString();
          else if (field == "labels") h.labels = ParseLabelsObject(&reader);
          else if (field == "count") h.total_count = static_cast<uint64_t>(reader.ParseNumber());
          else if (field == "sum") h.sum = reader.ParseNumber();
          else if (field == "min") h.min = reader.ParseNumber();
          else if (field == "max") h.max = reader.ParseNumber();
          else if (field == "p50") h.p50 = reader.ParseNumber();
          else if (field == "p90") h.p90 = reader.ParseNumber();
          else if (field == "p99") h.p99 = reader.ParseNumber();
          else if (field == "p999") h.p999 = reader.ParseNumber();
          else reader.SkipValue();
        });
        snapshot.log_histograms.push_back(std::move(h));
      });
    } else {
      reader.SkipValue();
    }
  });
  if (reader.error()) {
    return Status::InvalidArgument(
        StrFormat("snapshot JSON: %s", reader.message().c_str()));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("snapshot JSON: trailing content");
  }
  if (snapshot.version != MetricsSnapshot::kVersion) {
    return Status::InvalidArgument(
        StrFormat("snapshot version %d unsupported (want %d)",
                  snapshot.version, MetricsSnapshot::kVersion));
  }
  return snapshot;
}

Result<MetricsSnapshot> ReadSnapshotJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument(
        StrFormat("cannot open '%s'", path.c_str()));
  }
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  return ParseSnapshotJson(content);
}

}  // namespace pdm::obs
