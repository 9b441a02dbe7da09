#include "core/report_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "util/heatmap.hpp"

namespace rp {

namespace {

std::string read_file(const std::string& path, bool& ok) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ok = false;
    return {};
  }
  std::string s;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) s.append(buf, n);
  std::fclose(f);
  ok = true;
  return s;
}

std::string render(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return v.b ? "true" : "false";
    case JsonValue::Kind::String: return "\"" + v.str + "\"";
    case JsonValue::Kind::Number: {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.17g", v.num);
      return buf;
    }
    case JsonValue::Kind::Array:
      return "<array[" + std::to_string(v.arr.size()) + "]>";
    case JsonValue::Kind::Object:
      return "<object{" + std::to_string(v.obj.size()) + "}>";
  }
  return "?";
}

struct DiffWalker {
  const ReportDiffOptions& opt;
  ReportDiffResult& res;

  bool ignored(const std::string& path) const {
    if (opt.default_ignores)
      for (const std::string& s : report_diff_default_ignores())
        if (path.find(s) != std::string::npos) return true;
    for (const std::string& s : opt.ignore)
      if (path.find(s) != std::string::npos) return true;
    return false;
  }

  void add(const std::string& path, const std::string& a, const std::string& b,
           double delta = 0.0) {
    res.diffs.push_back({path, a, b, delta});
  }

  void walk(const std::string& path, const JsonValue& a, const JsonValue& b) {
    if (ignored(path)) return;
    if (a.kind != b.kind) {
      add(path, render(a), render(b));
      return;
    }
    switch (a.kind) {
      case JsonValue::Kind::Object: {
        std::set<std::string> keys;
        for (const auto& [k, v] : a.obj) keys.insert(k);
        for (const auto& [k, v] : b.obj) keys.insert(k);
        for (const std::string& k : keys) {
          const std::string p = path.empty() ? k : path + "." + k;
          if (!a.has(k)) {
            if (!ignored(p)) add(p, "<missing>", render(b.at(k)));
          } else if (!b.has(k)) {
            if (!ignored(p)) add(p, render(a.at(k)), "<missing>");
          } else {
            walk(p, a.at(k), b.at(k));
          }
        }
        break;
      }
      case JsonValue::Kind::Array: {
        const std::size_t n = std::max(a.arr.size(), b.arr.size());
        if (a.arr.size() != b.arr.size())
          add(path, "<array[" + std::to_string(a.arr.size()) + "]>",
              "<array[" + std::to_string(b.arr.size()) + "]>");
        for (std::size_t i = 0; i < n; ++i) {
          const std::string p = path + "[" + std::to_string(i) + "]";
          if (i >= a.arr.size()) add(p, "<missing>", render(b.arr[i]));
          else if (i >= b.arr.size()) add(p, render(a.arr[i]), "<missing>");
          else walk(p, a.arr[i], b.arr[i]);
        }
        break;
      }
      case JsonValue::Kind::Number: {
        ++res.values_compared;
        const double d = std::fabs(a.num - b.num);
        const bool both_finite = std::isfinite(a.num) && std::isfinite(b.num);
        const double tol =
            opt.abs_tol + opt.rel_tol * std::max(std::fabs(a.num), std::fabs(b.num));
        if (!both_finite ? a.num != b.num : d > tol)
          add(path, render(a), render(b), d);
        break;
      }
      default:
        ++res.values_compared;
        if (render(a) != render(b)) add(path, render(a), render(b));
        break;
    }
  }
};

ReportDiffResult fail(const std::string& msg) {
  ReportDiffResult r;
  r.error = true;
  r.error_msg = msg;
  return r;
}

}  // namespace

const std::vector<std::string>& report_diff_default_ignores() {
  // Things that legitimately differ between two otherwise-identical runs:
  // wall-clock, memory, the binary's build stamp, output locations, the
  // thread-pool provenance block (thread count / pool statistics), the
  // simd/incremental dispatch provenance block (results are identical at
  // every vector level and with incremental eval on or off — only the
  // provenance strings differ), and two blocks that older reports carry
  // and current ones do not: the profiler block ("profile"), the sampled
  // resource timeline ("resources") and the named-value block ("gauges").
  // All three are dotless, so the key's very presence in one report only is
  // ignored too, not just its leaves.
  static const std::vector<std::string> kIgnores = {
      "stage_times", "stage_total_sec", "peak_rss_kb", "build.", "snapshot_dir",
      "parallel.", "simd.", "profile", "resources", "gauges",
  };
  return kIgnores;
}

std::string ReportDiffResult::format(std::size_t max_lines) const {
  if (error) return "diff error: " + error_msg + "\n";
  std::ostringstream os;
  if (diffs.empty()) {
    os << "identical (" << values_compared << " values compared)\n";
    return os.str();
  }
  os << diffs.size() << " difference(s) over " << values_compared
     << " compared values:\n";
  std::size_t shown = 0;
  for (const DiffEntry& d : diffs) {
    if (shown++ >= max_lines) {
      os << "  ... (" << diffs.size() - max_lines << " more)\n";
      break;
    }
    os << "  " << d.path << ": " << d.a << " -> " << d.b;
    if (d.delta > 0) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.6g", d.delta);
      os << "  (|delta| " << buf << ")";
    }
    os << "\n";
  }
  return os.str();
}

ReportDiffResult diff_json_values(const JsonValue& a, const JsonValue& b,
                                  const ReportDiffOptions& opt) {
  ReportDiffResult res;
  DiffWalker{opt, res}.walk("", a, b);
  return res;
}

ReportDiffResult diff_report_files(const std::string& path_a, const std::string& path_b,
                                   const ReportDiffOptions& opt) {
  bool ok_a = false, ok_b = false;
  const std::string text_a = read_file(path_a, ok_a);
  const std::string text_b = read_file(path_b, ok_b);
  if (!ok_a) return fail("cannot read '" + path_a + "'");
  if (!ok_b) return fail("cannot read '" + path_b + "'");
  JsonValue a, b;
  try {
    a = json_parse(text_a);
  } catch (const std::exception& e) {
    return fail(path_a + ": " + e.what());
  }
  try {
    b = json_parse(text_b);
  } catch (const std::exception& e) {
    return fail(path_b + ": " + e.what());
  }
  return diff_json_values(a, b, opt);
}

ReportDiffResult diff_snapshot_dirs(const std::string& dir_a, const std::string& dir_b,
                                    const ReportDiffOptions& opt) {
  ReportDiffResult res;
  bool ok_a = false, ok_b = false;
  const std::string man_a_text = read_file(dir_a + "/manifest.json", ok_a);
  const std::string man_b_text = read_file(dir_b + "/manifest.json", ok_b);
  if (!ok_a) return fail("cannot read '" + dir_a + "/manifest.json'");
  if (!ok_b) return fail("cannot read '" + dir_b + "/manifest.json'");
  JsonValue man_a, man_b;
  try {
    man_a = json_parse(man_a_text);
    man_b = json_parse(man_b_text);
  } catch (const std::exception& e) {
    return fail(std::string("manifest parse: ") + e.what());
  }
  if (!man_a.has("maps") || !man_b.has("maps"))
    return fail("manifest missing 'maps' array");

  // Pair maps by stage/name (the stable identity; seq follows capture order).
  const auto key_of = [](const JsonValue& m) {
    return m.at("stage").str + "/" + m.at("name").str;
  };
  std::vector<std::pair<std::string, const JsonValue*>> maps_b;
  for (const JsonValue& m : man_b.at("maps").arr) maps_b.emplace_back(key_of(m), &m);

  std::set<std::string> seen;
  for (const JsonValue& ma : man_a.at("maps").arr) {
    const std::string key = key_of(ma);
    seen.insert(key);
    const auto it = std::find_if(maps_b.begin(), maps_b.end(),
                                 [&](const auto& kv) { return kv.first == key; });
    const std::string path = "map:" + key;
    if (it == maps_b.end()) {
      res.diffs.push_back({path, "<present>", "<missing>", 0.0});
      continue;
    }
    const JsonValue& mb = *it->second;
    Grid2D<double> ga, gb;
    if (!read_grid_bin(dir_a + "/" + ma.at("grid").str, ga))
      return fail("cannot read grid '" + dir_a + "/" + ma.at("grid").str + "'");
    if (!read_grid_bin(dir_b + "/" + mb.at("grid").str, gb))
      return fail("cannot read grid '" + dir_b + "/" + mb.at("grid").str + "'");
    if (ga.nx() != gb.nx() || ga.ny() != gb.ny()) {
      res.diffs.push_back({path,
                           std::to_string(ga.nx()) + "x" + std::to_string(ga.ny()),
                           std::to_string(gb.nx()) + "x" + std::to_string(gb.ny()),
                           0.0});
      continue;
    }
    double max_d = 0.0;
    int bad_cells = 0;
    for (std::size_t i = 0; i < ga.data().size(); ++i) {
      const double va = ga.data()[i], vb = gb.data()[i];
      ++res.values_compared;
      const double d = std::fabs(va - vb);
      const double tol =
          opt.abs_tol + opt.rel_tol * std::max(std::fabs(va), std::fabs(vb));
      const bool both_finite = std::isfinite(va) && std::isfinite(vb);
      if (!both_finite ? va != vb : d > tol) {
        ++bad_cells;
        if (both_finite) max_d = std::max(max_d, d);
      }
    }
    if (bad_cells > 0)
      res.diffs.push_back({path, std::to_string(bad_cells) + " cells differ",
                           "of " + std::to_string(ga.size()), max_d});
  }
  for (const auto& [key, mb] : maps_b)
    if (seen.count(key) == 0)
      res.diffs.push_back({"map:" + key, "<missing>", "<present>", 0.0});

  // Convergence histories diff as plain JSON under a "convergence." prefix.
  bool conv_a_ok = false, conv_b_ok = false;
  const std::string conv_a = read_file(dir_a + "/convergence.json", conv_a_ok);
  const std::string conv_b = read_file(dir_b + "/convergence.json", conv_b_ok);
  if (conv_a_ok && conv_b_ok) {
    try {
      ReportDiffResult conv =
          diff_json_values(json_parse(conv_a), json_parse(conv_b), opt);
      res.values_compared += conv.values_compared;
      for (DiffEntry& d : conv.diffs) {
        d.path = "convergence." + d.path;
        res.diffs.push_back(std::move(d));
      }
    } catch (const std::exception& e) {
      return fail(std::string("convergence parse: ") + e.what());
    }
  } else if (conv_a_ok != conv_b_ok) {
    res.diffs.push_back({"convergence.json", conv_a_ok ? "<present>" : "<missing>",
                         conv_b_ok ? "<present>" : "<missing>", 0.0});
  }
  return res;
}

}  // namespace rp
