// Monitor DSL: document parser strictness, assess-range grammar,
// monitor round-trips, and fail-closed compilation (src/dsl).
#include "dsl/monitor.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dsl/text.h"

namespace stardust::dsl {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Text parser --------------------------------------------------------

TEST(TextParserTest, ParsesMapsListsAndScalars) {
  const std::string doc =
      "name: demo   # trailing comment\n"
      "limits:\n"
      "  low: 3\n"
      "  high: \"quoted: value\"\n"
      "items:\n"
      "  - first: 1\n"
      "    second: 2\n"
      "  - first: 3\n"
      "    second: 4\n";
  Result<TextNode> root = ParseTextDocument(doc, "test");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const TextNode* name = root.value().Get("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->scalar, "demo");
  EXPECT_EQ(name->line, 1u);
  const TextNode* limits = root.value().Get("limits");
  ASSERT_NE(limits, nullptr);
  ASSERT_EQ(limits->kind, TextNode::Kind::kMap);
  EXPECT_EQ(limits->Get("low")->scalar, "3");
  EXPECT_EQ(limits->Get("high")->scalar, "quoted: value");
  const TextNode* items = root.value().Get("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->kind, TextNode::Kind::kList);
  ASSERT_EQ(items->items.size(), 2u);
  EXPECT_EQ(items->items[1].Get("second")->scalar, "4");
  EXPECT_EQ(items->items[1].Get("second")->line, 9u);
}

TEST(TextParserTest, LiteralBlockKeepsLinesAndPosition) {
  const std::string doc =
      "rows: |\n"
      "  1, 2, 3\n"
      "  4, 5, 6   # kept verbatim, not a comment\n"
      "after: yes\n";
  Result<TextNode> root = ParseTextDocument(doc, "test");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const TextNode* rows = root.value().Get("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_TRUE(rows->literal_block);
  EXPECT_EQ(rows->line, 2u);
  EXPECT_EQ(rows->scalar, "1, 2, 3\n4, 5, 6   # kept verbatim, not a comment");
  EXPECT_EQ(root.value().Get("after")->scalar, "yes");
}

struct BadDoc {
  const char* doc;
  const char* position;  // expected "line:col" fragment in the message
};

class TextParserRejects : public ::testing::TestWithParam<BadDoc> {};

TEST_P(TextParserRejects, WithPositionedDiagnostic) {
  Result<TextNode> root = ParseTextDocument(GetParam().doc, "bad");
  ASSERT_FALSE(root.ok()) << GetParam().doc;
  const std::string expect = std::string("bad:") + GetParam().position;
  EXPECT_NE(root.status().message().find(expect), std::string::npos)
      << root.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    HostileInputs, TextParserRejects,
    ::testing::Values(
        BadDoc{"", "1:1"},                          // empty document
        BadDoc{"# only comments\n", "1:1"},         // still empty
        BadDoc{"  indented: 1\n", "1:3"},           // top level not col 1
        BadDoc{"a: 1\na: 2\n", "2:1"},              // duplicate key
        BadDoc{"plain scalar\n", "1:1"},            // no key
        BadDoc{"a: 1\n\tb: 2\n", "2:1"},            // tab indentation
        BadDoc{"a:\n", "1:1"},                      // missing value
        BadDoc{"a: \"unterminated\n", "1:4"},       // bad quote
        BadDoc{"a: 1\n    b: 2\n", "2:5"},          // stray deep indent
        BadDoc{"list:\n  - 1\n  -\n", "3:3"},       // empty list item
        BadDoc{"rows: |\nafter: 1\n", "1:1"},       // empty literal block
        BadDoc{"a: 1\nb\n", "2:1"}));               // key without colon

// --- Assess ranges ------------------------------------------------------

TEST(AssessRangeTest, ParsesIntervalAndComparatorForms) {
  Result<AssessRange> r = ParseAssessRange("(5, 15]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().lo, 5.0);
  EXPECT_EQ(r.value().hi, 15.0);
  EXPECT_FALSE(r.value().lo_inclusive);
  EXPECT_TRUE(r.value().hi_inclusive);
  EXPECT_FALSE(r.value().Contains(5.0));
  EXPECT_TRUE(r.value().Contains(15.0));

  r = ParseAssessRange(">0.97");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().lo, 0.97);
  EXPECT_FALSE(r.value().lo_inclusive);
  EXPECT_EQ(r.value().hi, kInf);
  EXPECT_FALSE(r.value().Contains(0.97));
  EXPECT_TRUE(r.value().Contains(1.0));

  r = ParseAssessRange("<= -2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().hi, -2.0);
  EXPECT_TRUE(r.value().hi_inclusive);
  EXPECT_EQ(r.value().lo, -kInf);

  r = ParseAssessRange("[-inf, 12)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().lo, -kInf);
  EXPECT_EQ(r.value().hi, 12.0);
  EXPECT_FALSE(r.value().hi_inclusive);
}

TEST(AssessRangeTest, RejectsMalformedAndEmptyRanges) {
  for (const char* bad :
       {"", "5", "[5]", "[a, b]", "[5, 4]", "(5, 5)", ">(3)", ">",
        "[5, 6", "{5, 6}", "[nan, 5]", ">nan"}) {
    EXPECT_FALSE(ParseAssessRange(bad).ok()) << "'" << bad << "'";
  }
}

TEST(AssessRangeTest, FormatParsesBackExactly) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    AssessRange range;
    switch (i % 4) {
      case 0:
        range.lo = rng.NextGaussian() * 100.0;
        range.hi = range.lo + std::abs(rng.NextGaussian()) + 0.001;
        break;
      case 1:
        range.lo = -kInf;
        range.hi = rng.NextGaussian();
        break;
      case 2:
        range.lo = rng.NextGaussian();
        range.hi = kInf;
        break;
      case 3:
        range.lo = range.hi = std::floor(rng.NextDouble(-50.0, 50.0));
        break;
    }
    range.lo_inclusive = i % 3 != 0 || range.lo == range.hi;
    range.hi_inclusive = i % 5 != 0 || range.lo == range.hi;
    ASSERT_TRUE(range.Validate().ok());
    Result<AssessRange> back = ParseAssessRange(FormatAssessRange(range));
    ASSERT_TRUE(back.ok()) << FormatAssessRange(range);
    EXPECT_EQ(back.value(), range) << FormatAssessRange(range);
  }
}

// --- Monitor round-trip and compilation ---------------------------------

MonitorDef SampleMonitor(int i) {
  MonitorDef def;
  switch (i % 4) {
    case 0:
      def.name = "burst";
      def.measure = "sum";
      def.window = 8;
      def.assess = {.lo = 0.0, .hi = 12.0};
      def.alert_rate = 2.5;
      def.alert_burst = 4;
      break;
    case 1:
      def.name = "variety";
      def.measure = "distinct";
      def.window = 32;
      def.assess = {.hi = 8.0, .hi_inclusive = false};
      def.precision = 14;
      def.buckets = 8;
      break;
    case 2:
      def.name = "p99";
      def.measure = "quantile";
      def.window = 128;
      def.assess = {.lo = 0.0, .hi = 3.0};
      def.q = 0.99;
      break;
    default:
      def.name = "dominant";
      def.measure = "heavy_hitters";
      def.window = 64;
      def.assess = {.lo = 1.0};
      def.epsilon = 0.005;
      def.depth = 5;
      def.phi = 0.4;
      def.candidates = 16;
      break;
  }
  return def;
}

TEST(MonitorTest, FormatParsesBackToTheSameDefinition) {
  for (int i = 0; i < 4; ++i) {
    const MonitorDef def = SampleMonitor(i);
    const std::string text = "monitors:\n" + FormatMonitor(def);
    Result<TextNode> root = ParseTextDocument(text, "roundtrip");
    ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << text;
    const TextNode* monitors = root.value().Get("monitors");
    ASSERT_NE(monitors, nullptr);
    ASSERT_EQ(monitors->items.size(), 1u);
    Result<MonitorDef> back =
        MonitorFromNode(monitors->items[0], "roundtrip");
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
    EXPECT_EQ(back.value(), def) << text;
  }
}

TEST(MonitorTest, UnknownKeysFailClosed) {
  const std::string doc =
      "- name: m\n"
      "  measure: sum\n"
      "  window: 8\n"
      "  assess: \"[0, 1]\"\n"
      "  threshold: 5\n";  // not a monitor key
  Result<TextNode> root = ParseTextDocument(doc, "strict");
  ASSERT_TRUE(root.ok());
  Result<MonitorDef> def =
      MonitorFromNode(root.value().items[0], "strict");
  ASSERT_FALSE(def.ok());
  EXPECT_NE(def.status().message().find("unknown monitor key 'threshold'"),
            std::string::npos)
      << def.status().ToString();
  EXPECT_NE(def.status().message().find("strict:5:"), std::string::npos)
      << def.status().ToString();
}

TEST(MonitorTest, MissingRequiredKeysAreDiagnosed) {
  const char* docs[] = {
      "- measure: sum\n  window: 8\n  assess: \"[0, 1]\"\n",   // no name
      "- name: m\n  window: 8\n  assess: \"[0, 1]\"\n",        // no measure
      "- name: m\n  measure: sum\n  assess: \"[0, 1]\"\n",     // no window
      "- name: m\n  measure: sum\n  window: 8\n",              // no assess
      "- name: m\n  measure: mean\n  window: 8\n  assess: \">0\"\n",
      "- name: m\n  measure: sum\n  window: x\n  assess: \">0\"\n",
      "- name: m\n  measure: sum\n  window: 8\n  assess: \"oops\"\n",
  };
  for (const char* doc : docs) {
    Result<TextNode> root = ParseTextDocument(doc, "strict");
    ASSERT_TRUE(root.ok()) << doc;
    EXPECT_FALSE(MonitorFromNode(root.value().items[0], "strict").ok())
        << doc;
  }
}

TEST(MonitorTest, CompileLowersExactAndSketchMeasures) {
  MonitorDef exact = SampleMonitor(0);
  Result<QuerySpec> spec = CompileMonitor(exact, AggregateKind::kSum);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().kind, QueryKind::kAggregate);
  EXPECT_EQ(spec.value().window, 8u);
  EXPECT_EQ(spec.value().assess.hi, 12.0);
  EXPECT_EQ(spec.value().alert_rate_per_sec, 2.5);
  EXPECT_EQ(spec.value().alert_burst, 4u);
  // The measure must match the engine's exact aggregate.
  EXPECT_FALSE(CompileMonitor(exact, AggregateKind::kMax).ok());

  MonitorDef sketch = SampleMonitor(3);
  spec = CompileMonitor(sketch, AggregateKind::kSum);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().kind, QueryKind::kSketch);
  EXPECT_EQ(spec.value().sketch.kind, SketchKind::kHeavyHitters);
  EXPECT_EQ(spec.value().sketch.window, 64u);
  EXPECT_EQ(spec.value().sketch.phi, 0.4);
  EXPECT_EQ(spec.value().window, 64u);  // mirrors the sketch window

  // Bad sketch knobs surface the monitor name.
  sketch.precision = 99;
  sketch.measure = "distinct";
  Result<QuerySpec> bad = CompileMonitor(sketch, AggregateKind::kSum);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("dominant"), std::string::npos);
}

// A DSL document cannot size a sketch past kMaxSketchMeasureBytes: epsilon
// 1e-9 would give each CountMin row 2^32 counters.
TEST(MonitorTest, OversizedSketchIsRejectedAtCompile) {
  const std::string doc =
      "- name: flood\n"
      "  measure: heavy_hitters\n"
      "  window: 64\n"
      "  assess: \">= 1\"\n"
      "  epsilon: 1e-9\n";
  Result<TextNode> root = ParseTextDocument(doc, "hostile");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  Result<MonitorDef> def = MonitorFromNode(root.value().items[0], "hostile");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def.value().epsilon, 1e-9);
  Result<QuerySpec> spec = CompileMonitor(def.value(), AggregateKind::kSum);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("flood"), std::string::npos)
      << spec.status().ToString();
  EXPECT_NE(spec.status().message().find("sketch measure needs"),
            std::string::npos)
      << spec.status().ToString();
}

}  // namespace
}  // namespace stardust::dsl
