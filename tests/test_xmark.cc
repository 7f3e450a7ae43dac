#include "xmark/generator.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "xmark/queries.h"

namespace xqp {
namespace {

TEST(XMarkGenerator, Deterministic) {
  XMarkOptions options;
  options.scale = 0.01;
  EXPECT_EQ(GenerateXMarkXml(options), GenerateXMarkXml(options));
  XMarkOptions other = options;
  other.seed = 7;
  EXPECT_NE(GenerateXMarkXml(options), GenerateXMarkXml(other));
}

TEST(XMarkGenerator, CountsScale) {
  auto small = CountsForScale(0.1);
  auto large = CountsForScale(1.0);
  EXPECT_GT(large.items, small.items);
  EXPECT_GT(large.people, small.people);
  EXPECT_EQ(large.items, 2175u);
  EXPECT_EQ(large.people, 2550u);
  EXPECT_EQ(large.open_auctions, 1200u);
  EXPECT_EQ(large.closed_auctions, 975u);
}

TEST(XMarkGenerator, ParsesAndHasSchemaShape) {
  XMarkOptions options;
  options.scale = 0.02;
  auto doc = std::move(GenerateXMarkDocument(options)).ValueOrDie();
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.RegisterDocument("xmark.xml", doc));
  auto count = [&](const std::string& q) {
    auto r = engine.Execute("count(" + q + ")");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? (*r)[0].AsAtomic().AsInt() : -1;
  };
  auto counts = CountsForScale(options.scale);
  EXPECT_EQ(count("doc('xmark.xml')/site/regions/*"), 6);
  EXPECT_EQ(count("doc('xmark.xml')/site/people/person"),
            static_cast<int64_t>(counts.people));
  EXPECT_EQ(count("doc('xmark.xml')/site/open_auctions/open_auction"),
            static_cast<int64_t>(counts.open_auctions));
  EXPECT_EQ(count("doc('xmark.xml')/site/closed_auctions/closed_auction"),
            static_cast<int64_t>(counts.closed_auctions));
  EXPECT_GE(count("doc('xmark.xml')//item"),
            static_cast<int64_t>(counts.items) - 6);
  EXPECT_GT(count("doc('xmark.xml')//bidder"), 0);
  EXPECT_GT(count("doc('xmark.xml')//description//keyword"), 0);
}

TEST(XMarkGenerator, MarkupCanBeDisabled) {
  XMarkOptions options;
  options.scale = 0.02;
  options.description_markup = false;
  std::string xml = GenerateXMarkXml(options);
  EXPECT_EQ(xml.find("<bold>"), std::string::npos);
  EXPECT_EQ(xml.find("<parlist>"), std::string::npos);
}

class XMarkQueryTest : public ::testing::TestWithParam<XMarkQuery> {};

TEST_P(XMarkQueryTest, EnginesAgree) {
  static std::shared_ptr<Document>* doc = [] {
    XMarkOptions options;
    options.scale = 0.02;
    return new std::shared_ptr<Document>(
        std::move(GenerateXMarkDocument(options)).ValueOrDie());
  }();
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.RegisterDocument("xmark.xml", *doc));
  XQP_ASSERT_OK_AND_ASSIGN(auto compiled, engine.Compile(GetParam().text));
  CompiledQuery::ExecOptions lazy;
  CompiledQuery::ExecOptions eager;
  eager.backend = ExecBackend::kEager;
  XQP_ASSERT_OK_AND_ASSIGN(std::string lazy_out, compiled->ExecuteToXml(lazy));
  XQP_ASSERT_OK_AND_ASSIGN(std::string eager_out,
                           compiled->ExecuteToXml(eager));
  EXPECT_EQ(lazy_out, eager_out) << GetParam().id;
  CompiledQuery::ExecOptions vm;
  vm.backend = ExecBackend::kVm;
  XQP_ASSERT_OK_AND_ASSIGN(std::string vm_out, compiled->ExecuteToXml(vm));
  EXPECT_EQ(vm_out, lazy_out) << GetParam().id;
  // Unoptimized must agree as well.
  XQueryEngine::CompileOptions raw;
  raw.optimize = false;
  XQP_ASSERT_OK_AND_ASSIGN(auto unopt, engine.Compile(GetParam().text, raw));
  XQP_ASSERT_OK_AND_ASSIGN(std::string unopt_out, unopt->ExecuteToXml(lazy));
  EXPECT_EQ(unopt_out, lazy_out) << GetParam().id;
}

INSTANTIATE_TEST_SUITE_P(All, XMarkQueryTest,
                         ::testing::ValuesIn(XMarkQuerySet()),
                         [](const ::testing::TestParamInfo<XMarkQuery>& info) {
                           return std::string(info.param.id);
                         });

TEST(XMarkQueries, LookupById) {
  EXPECT_NE(FindXMarkQuery("Q1"), nullptr);
  EXPECT_NE(FindXMarkQuery("Q20"), nullptr);
  EXPECT_EQ(FindXMarkQuery("Q99"), nullptr);
  EXPECT_EQ(XMarkQuerySet().size(), 20u);
}

TEST(XMarkQueries, Q20BucketsPartitionProfiles) {
  XMarkOptions options;
  options.scale = 0.02;
  auto doc = std::move(GenerateXMarkDocument(options)).ValueOrDie();
  XQueryEngine engine;
  XQP_ASSERT_OK(engine.RegisterDocument("xmark.xml", doc));
  XQP_ASSERT_OK_AND_ASSIGN(
      auto q,
      engine.Compile("sum((count(doc('xmark.xml')/site/people/person/"
                     "profile[@income >= 50000]), "
                     "count(doc('xmark.xml')/site/people/person/profile["
                     "@income < 50000])))"));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence buckets, q->Execute());
  XQP_ASSERT_OK_AND_ASSIGN(
      auto q2, engine.Compile(
                   "count(doc('xmark.xml')/site/people/person/profile)"));
  XQP_ASSERT_OK_AND_ASSIGN(Sequence total, q2->Execute());
  EXPECT_EQ(buckets[0].AsAtomic().AsInt(), total[0].AsAtomic().AsInt());
}

}  // namespace
}  // namespace xqp
