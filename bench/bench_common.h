#ifndef STREAMSC_BENCH_BENCH_COMMON_H_
#define STREAMSC_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

/// \file bench_common.h
/// Shared scaffolding for the experiment binaries. Each bench regenerates
/// one experiment on the paper's claims as self-describing tables; see
/// README.md ("Solvers") for the substitutions they rely on.
///
/// Besides the human-readable tables, benches can accumulate BenchResult
/// rows into a BenchJson sink, which writes a machine-readable
/// `BENCH_<id>.json` sidecar (one array of flat objects) into the working
/// directory — the shape CI trend tooling and notebooks consume without
/// scraping stdout tables.

namespace streamsc::bench {

/// Prints the standard experiment banner.
inline void Banner(const std::string& id, const std::string& claim) {
  std::cout << "\n########################################################\n"
            << "# " << id << "\n"
            << "# claim: " << claim << "\n"
            << "########################################################\n";
}

/// Prints a "parameters" line so every table is reproducible standalone.
inline void Params(const std::string& text) {
  std::cout << "# params: " << text << "\n";
}

/// One machine-readable result row: the invariants every experiment
/// reports regardless of its table shape (who ran, on what, how wide,
/// and the pass/space/wall outcome).
struct BenchResult {
  std::string solver;    ///< Registry key or contender label.
  std::string instance;  ///< Instance identifier ("planted n=8192 ...").
  std::size_t n = 0;     ///< Universe size.
  std::size_t m = 0;     ///< Number of sets.
  std::size_t threads = 1;            ///< Engine width of the run.
  std::uint64_t passes = 0;           ///< Stream passes consumed.
  std::uint64_t peak_space_bytes = 0; ///< Peak logical space (SpaceMeter).
  double wall_seconds = 0.0;          ///< Wall-clock time of the run.
};

/// Accumulates BenchResult rows and writes them as `BENCH_<id>.json`.
/// Collection is cheap and allocation at write time only — benches stay
/// table-first, the sidecar is a byproduct.
class BenchJson {
 public:
  explicit BenchJson(std::string id) : id_(std::move(id)) {}

  void Add(BenchResult row) { rows_.push_back(std::move(row)); }

  /// Writes `BENCH_<id>.json` into the working directory. Returns false
  /// (and says so on stderr) if the file cannot be written; benches
  /// treat that as a warning, not a failure — the tables already went to
  /// stdout.
  bool Write() const {
    const std::string path = "BENCH_" + id_ + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "# bench json: cannot open " << path << " for writing\n";
      return false;
    }
    out << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const BenchResult& r = rows_[i];
      out << "  {\"solver\": \"" << Escaped(r.solver)
          << "\", \"instance\": \"" << Escaped(r.instance)
          << "\", \"n\": " << r.n << ", \"m\": " << r.m
          << ", \"threads\": " << r.threads << ", \"passes\": " << r.passes
          << ", \"peak_space_bytes\": " << r.peak_space_bytes
          << ", \"wall_seconds\": " << r.wall_seconds << "}"
          << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    if (!out.flush()) {
      std::cerr << "# bench json: write to " << path << " failed\n";
      return false;
    }
    std::cout << "# wrote " << rows_.size() << " result rows to " << path
              << "\n";
    return true;
  }

 private:
  // Labels are plain ASCII by construction; escape the JSON specials
  // anyway so a future label cannot corrupt the sidecar.
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control
      out.push_back(c);
    }
    return out;
  }

  std::string id_;
  std::vector<BenchResult> rows_;
};

}  // namespace streamsc::bench

#endif  // STREAMSC_BENCH_BENCH_COMMON_H_
