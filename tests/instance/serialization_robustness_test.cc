#include <gtest/gtest.h>

#include <string>

#include "instance/serialization.h"
#include "testing/ssc1_corpus.h"

namespace streamsc {
namespace {

// Failure-injection suite: the parser must never crash, hang, or return a
// malformed SetSystem on corrupted input — only Ok-with-valid-system or a
// clean InvalidArgument.

// Parsing either succeeds with a self-consistent system or fails cleanly.
void ExpectParseIsTotal(const std::string& text) {
  const StatusOr<SetSystem> parsed = SetSystemFromString(text);
  if (parsed.ok()) {
    EXPECT_TRUE(parsed->Validate().ok());
    for (SetId id = 0; id < parsed->num_sets(); ++id) {
      EXPECT_EQ(parsed->set(id).size(), parsed->universe_size());
    }
  } else {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(parsed.status().message().empty());
  }
}

class SerializationMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationMutationTest, SingleByteMutationsAreHandled) {
  for (const std::string& text : testing::Ssc1ByteMutations(GetParam())) {
    ExpectParseIsTotal(text);
  }
}

TEST_P(SerializationMutationTest, TruncationsAreHandled) {
  for (const std::string& text : testing::Ssc1Truncations(GetParam())) {
    ExpectParseIsTotal(text);
  }
}

TEST_P(SerializationMutationTest, LineDeletionsAreHandled) {
  for (const std::string& text : testing::Ssc1LineDeletions(GetParam())) {
    ExpectParseIsTotal(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationMutationTest,
                         ::testing::Range(0, 4));

TEST(SerializationRobustnessTest, AdversarialDocuments) {
  ExpectParseIsTotal("ssc1 18446744073709551615 1\n1 0\n");  // huge n
  ExpectParseIsTotal("ssc1 4 18446744073709551615\n");       // huge m
  ExpectParseIsTotal("ssc1 -4 1\n1 0\n");                    // negative n
  ExpectParseIsTotal("ssc1 4 1\n-1 0\n");                    // negative k
  ExpectParseIsTotal("ssc1 4 1\n1 -2\n");                    // negative elem
  ExpectParseIsTotal(std::string(1 << 16, '#'));             // comment blob
  ExpectParseIsTotal("ssc1 4 2\n0\n0\n");                    // empty sets
}

TEST(SerializationEdgeCaseTest, EmptySetsParse) {
  const StatusOr<SetSystem> parsed =
      SetSystemFromString("ssc1 4 3\n0\n2 1 2\n0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_sets(), 3u);
  EXPECT_EQ(parsed->set(0).CountSet(), 0u);
  EXPECT_EQ(parsed->set(1).CountSet(), 2u);
  EXPECT_EQ(parsed->set(2).CountSet(), 0u);
}

TEST(SerializationEdgeCaseTest, CrlfLineEndingsParse) {
  // Windows-authored files: every line ends \r\n. The \r must neither
  // corrupt the last token nor count as content.
  const StatusOr<SetSystem> parsed =
      SetSystemFromString("ssc1 4 2\r\n2 0 1\r\n1 3\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->universe_size(), 4u);
  ASSERT_EQ(parsed->num_sets(), 2u);
  EXPECT_TRUE(parsed->set(0).Test(0));
  EXPECT_TRUE(parsed->set(0).Test(1));
  EXPECT_TRUE(parsed->set(1).Test(3));
}

TEST(SerializationEdgeCaseTest, CommentOnlyTrailingLinesParse) {
  const StatusOr<SetSystem> parsed = SetSystemFromString(
      "# leading comment\nssc1 4 1\n2 0 1\n# trailing comment\n\n   \n"
      "# another\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_sets(), 1u);
}

TEST(SerializationEdgeCaseTest, HeaderSetCountMismatchRejected) {
  // Header promises more sets than the body provides...
  const StatusOr<SetSystem> missing =
      SetSystemFromString("ssc1 4 3\n1 0\n1 1\n");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  // ...or fewer (trailing non-comment content after the last set).
  const StatusOr<SetSystem> extra =
      SetSystemFromString("ssc1 4 1\n1 0\n1 1\n");
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationEdgeCaseTest, SetElementCountMismatchRejected) {
  // The per-line k must match the listed elements exactly.
  EXPECT_FALSE(SetSystemFromString("ssc1 4 1\n3 0 1\n").ok());   // too few
  EXPECT_FALSE(SetSystemFromString("ssc1 4 1\n1 0 1\n").ok());   // too many
  EXPECT_FALSE(SetSystemFromString("ssc1 4 1\n2 1 1\n").ok());   // duplicate
}

TEST(SerializationRobustnessTest, HugeDeclaredCountsDoNotAllocate) {
  // m = 2^60 with no set lines must fail fast (line-by-line parsing), not
  // try to reserve memory for 2^60 sets.
  const StatusOr<SetSystem> parsed =
      SetSystemFromString("ssc1 8 1152921504606846976\n");
  EXPECT_FALSE(parsed.ok());
}

}  // namespace
}  // namespace streamsc
