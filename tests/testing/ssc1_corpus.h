#ifndef STREAMSC_TESTS_TESTING_SSC1_CORPUS_H_
#define STREAMSC_TESTS_TESTING_SSC1_CORPUS_H_

#include <string>
#include <vector>

#include "instance/generators.h"
#include "instance/serialization.h"
#include "util/random.h"

/// \file ssc1_corpus.h
/// The ssc1 mutation corpus: damaged variants of one small valid document
/// (single-byte replacements, truncations, deleted lines), deterministic
/// per seed. The parser robustness suite runs it through
/// SetSystemFromString; the FileSetStream agreement test replays the same
/// documents from files.

namespace streamsc {
namespace testing {

inline std::string Ssc1BaseDocument() {
  Rng rng(1);
  return SetSystemToString(UniformRandomInstance(64, 8, 12, rng));
}

/// 200 documents, each with one byte replaced by a printable byte or a
/// newline: structural damage without leaving the text domain the format
/// is defined on.
inline std::vector<std::string> Ssc1ByteMutations(int seed) {
  const std::string base = Ssc1BaseDocument();
  Rng rng(100 + seed);
  std::vector<std::string> documents;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    const std::size_t pos =
        static_cast<std::size_t>(rng.UniformInt(mutated.size()));
    mutated[pos] = "0123456789 \n#x-"[rng.UniformInt(15)];
    documents.push_back(std::move(mutated));
  }
  return documents;
}

/// 50 strict prefixes of the base document.
inline std::vector<std::string> Ssc1Truncations(int seed) {
  const std::string base = Ssc1BaseDocument();
  Rng rng(200 + seed);
  std::vector<std::string> documents;
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t keep =
        static_cast<std::size_t>(rng.UniformInt(base.size()));
    documents.push_back(base.substr(0, keep));
  }
  return documents;
}

/// 20 documents, each missing one line of the base document.
inline std::vector<std::string> Ssc1LineDeletions(int seed) {
  const std::string base = Ssc1BaseDocument();
  Rng rng(300 + seed);
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < base.size()) {
    const std::size_t end = base.find('\n', start);
    lines.push_back(base.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  std::vector<std::string> documents;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t victim =
        static_cast<std::size_t>(rng.UniformInt(lines.size()));
    std::string mutated;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i == victim) continue;
      mutated += lines[i];
      mutated += '\n';
    }
    documents.push_back(std::move(mutated));
  }
  return documents;
}

/// Every document of the three families above for \p seed.
inline std::vector<std::string> Ssc1MutationCorpus(int seed) {
  std::vector<std::string> corpus = Ssc1ByteMutations(seed);
  for (std::vector<std::string> family :
       {Ssc1Truncations(seed), Ssc1LineDeletions(seed)}) {
    corpus.insert(corpus.end(), family.begin(), family.end());
  }
  return corpus;
}

}  // namespace testing
}  // namespace streamsc

#endif  // STREAMSC_TESTS_TESTING_SSC1_CORPUS_H_
