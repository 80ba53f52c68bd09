#include "io/loader.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace hgmatch {

Result<Hypergraph> ParseHypergraph(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::pair<VertexId, Label>> vertices;
  std::vector<std::pair<VertexSet, Label>> edges;
  size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "v") {
      int64_t id = -1, label = -1;
      if (!(ls >> id >> label) || id < 0 || label < 0) {
        return Status::Corruption("bad vertex line " + std::to_string(line_no));
      }
      vertices.emplace_back(static_cast<VertexId>(id),
                            static_cast<Label>(label));
    } else if (tag == "e" || tag == "el") {
      Label edge_label = 0;
      if (tag == "el") {
        int64_t l = -1;
        if (!(ls >> l) || l < 0) {
          return Status::Corruption("bad hyperedge label at line " +
                                    std::to_string(line_no));
        }
        edge_label = static_cast<Label>(l);
      }
      VertexSet members;
      int64_t v = -1;
      while (ls >> v) {
        if (v < 0) {
          return Status::Corruption("bad hyperedge line " +
                                    std::to_string(line_no));
        }
        members.push_back(static_cast<VertexId>(v));
      }
      if (members.empty()) {
        return Status::Corruption("empty hyperedge at line " +
                                  std::to_string(line_no));
      }
      edges.emplace_back(std::move(members), edge_label);
    } else {
      return Status::Corruption("unknown line tag '" + tag + "' at line " +
                                std::to_string(line_no));
    }
  }

  // Materialise vertices densely.
  VertexId max_id = 0;
  for (const auto& [id, label] : vertices) max_id = std::max(max_id, id);
  if (!vertices.empty() && vertices.size() != static_cast<size_t>(max_id) + 1) {
    return Status::Corruption("vertex ids are not dense: " +
                              std::to_string(vertices.size()) +
                              " declarations, max id " +
                              std::to_string(max_id));
  }
  std::vector<Label> labels(vertices.size(), kInvalidLabel);
  for (const auto& [id, label] : vertices) {
    if (labels[id] != kInvalidLabel) {
      return Status::Corruption("vertex " + std::to_string(id) +
                                " declared twice");
    }
    labels[id] = label;
  }

  Hypergraph h;
  for (Label l : labels) h.AddVertex(l);
  for (auto& [members, edge_label] : edges) {
    Result<EdgeId> added = h.AddEdge(members, edge_label);
    if (!added.ok()) return added.status();
  }
  return h;
}

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

bool IsQuerySeparator(const std::string& line) {
  size_t begin = line.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return false;
  size_t end = line.find_last_not_of(" \t\r");
  const std::string trimmed = line.substr(begin, end - begin + 1);
  return trimmed == "---" || trimmed.rfind("# query", 0) == 0;
}

std::string Trim(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// Interprets a '#' comment line as a per-query submission header when its
// first token is one of the known keys followed by '='. Returns 0 when the
// line is an ordinary comment, 1 when a header was parsed into *submit, and
// -1 (with *error set) when a known key carries a malformed or
// out-of-range value — a typo in a header must fail loudly, not run the
// query under silently-default options.
int ParseQueryHeader(const std::string& line, SubmitOptions* submit,
                     std::string* error) {
  const size_t eq = line.find('=');
  if (eq == std::string::npos) return 0;
  const std::string key = Trim(line.substr(1, eq - 1));
  if (key != "tenant" && key != "priority" && key != "weight" &&
      key != "timeout") {
    return 0;
  }
  const std::string value = Trim(line.substr(eq + 1));
  const char* begin = value.c_str();
  char* end = nullptr;
  if (key == "tenant") {
    if (value.empty() || value[0] == '-') {
      *error = "bad tenant header value '" + value + "'";
      return -1;
    }
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (end == begin || *end != '\0' || v > 0xffffffffull) {
      *error = "bad tenant header value '" + value + "'";
      return -1;
    }
    submit->tenant_id = static_cast<uint32_t>(v);
  } else if (key == "priority") {
    const long v = std::strtol(begin, &end, 10);
    if (end == begin || *end != '\0' || v < INT32_MIN || v > INT32_MAX) {
      *error = "bad priority header value '" + value + "'";
      return -1;
    }
    submit->priority = static_cast<int32_t>(v);
  } else if (key == "weight") {
    const double v = std::strtod(begin, &end);
    // !isfinite rejects overflowed values like 1e999: an infinite weight
    // would make the tenant's virtual-time increment zero and starve every
    // other tenant — exactly the silent misconfiguration headers must not
    // let through.
    if (end == begin || *end != '\0' || !(v > 0) || !std::isfinite(v)) {
      *error = "bad weight header value '" + value + "' (must be finite > 0)";
      return -1;
    }
    submit->weight = v;
  } else {  // timeout
    const double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || v < 0 || !std::isfinite(v)) {
      *error =
          "bad timeout header value '" + value + "' (must be finite >= 0)";
      return -1;
    }
    submit->timeout_seconds = v;
  }
  return 1;
}

}  // namespace

Result<Hypergraph> LoadHypergraph(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseHypergraph(text.value());
}

Result<std::vector<QuerySetEntry>> ParseQuerySetEntries(
    const std::string& text) {
  struct RawBlock {
    std::string text;
    SubmitOptions submit;
  };
  std::vector<RawBlock> blocks(1);
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsQuerySeparator(line)) {
      blocks.emplace_back();
      continue;
    }
    const std::string trimmed = Trim(line);
    if (!trimmed.empty() && trimmed[0] == '#') {
      std::string error;
      if (ParseQueryHeader(trimmed, &blocks.back().submit, &error) < 0) {
        return Status::Corruption("query set line " + std::to_string(line_no) +
                                  ": " + error);
      }
    }
    blocks.back().text.append(line).push_back('\n');
  }

  std::vector<QuerySetEntry> entries;
  for (RawBlock& block : blocks) {
    if (block.text.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    Result<Hypergraph> q = ParseHypergraph(block.text);
    if (!q.ok()) {
      // Index among non-empty blocks, matching the CLI's query numbering.
      return Status(q.status().code(),
                    "query block " + std::to_string(entries.size()) + ": " +
                        q.status().message());
    }
    entries.push_back(QuerySetEntry{std::move(q.value()), block.submit});
  }
  return entries;
}

Result<std::vector<Hypergraph>> ParseQuerySet(const std::string& text) {
  Result<std::vector<QuerySetEntry>> entries = ParseQuerySetEntries(text);
  if (!entries.ok()) return entries.status();
  std::vector<Hypergraph> queries;
  queries.reserve(entries.value().size());
  for (QuerySetEntry& e : entries.value()) {
    queries.push_back(std::move(e.query));
  }
  return queries;
}

Result<std::vector<Hypergraph>> LoadQuerySet(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseQuerySet(text.value());
}

Result<std::vector<QuerySetEntry>> LoadQuerySetEntries(
    const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseQuerySetEntries(text.value());
}

}  // namespace hgmatch
