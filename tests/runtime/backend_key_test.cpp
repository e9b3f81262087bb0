// The pure string layer under make_backend: resolve_backend_key and
// parse_memory_budget, exercised without any model or dataset — the same
// seam the TGNN_FUZZ harness (tests/fuzz/backend_key_fuzz.cpp) drives with
// arbitrary bytes. The hostile-input cases here pin the crashes the fuzzer
// would otherwise find: "nan" passing the sign check into a UB cast, and
// finite values a unit multiplier pushes past 2^64.
#include "runtime/backend.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace tgnn::runtime {
namespace {

constexpr std::size_t kGiB = std::size_t{1024} * 1024 * 1024;

TEST(ResolveBackendKey, BareKeyResolvesToDefaults) {
  const auto r = resolve_backend_key("cpu", kernels::Precision::kFp32, 0);
  EXPECT_EQ(r.base, "cpu");
  EXPECT_EQ(r.display, "cpu");
  EXPECT_EQ(r.precision, kernels::Precision::kFp32);
  EXPECT_FALSE(r.precision_requested);
  EXPECT_FALSE(r.mem_requested);
  EXPECT_EQ(r.memory_budget, 0u);
}

TEST(ResolveBackendKey, SuffixStackResolvesAllParts) {
  const auto r = resolve_backend_key("sharded-cpu:int8:mem=512m",
                                     kernels::Precision::kFp32, 0);
  EXPECT_EQ(r.base, "sharded-cpu");
  EXPECT_EQ(r.display, "sharded-cpu:int8");
  EXPECT_EQ(r.precision, kernels::Precision::kInt8);
  EXPECT_TRUE(r.precision_requested);
  EXPECT_TRUE(r.mem_requested);
  EXPECT_EQ(r.memory_budget, 512u * 1024 * 1024);
}

TEST(ResolveBackendKey, ExplicitFp32NormalizesDisplay) {
  const auto r = resolve_backend_key("cpu:fp32", kernels::Precision::kFp32, 0);
  EXPECT_EQ(r.display, "cpu");
  EXPECT_TRUE(r.precision_requested);
}

TEST(ResolveBackendKey, OptionsPrecisionCountsAsRequested) {
  const auto r = resolve_backend_key("cpu", kernels::Precision::kInt8, 0);
  EXPECT_EQ(r.precision, kernels::Precision::kInt8);
  EXPECT_TRUE(r.precision_requested);
  EXPECT_EQ(r.display, "cpu:int8");
}

TEST(ResolveBackendKey, PercentBudgetAnchorsOnStateBytes) {
  const auto r =
      resolve_backend_key("cpu:mem=50%", kernels::Precision::kFp32, 4096);
  EXPECT_EQ(r.memory_budget, 2048u);
}

TEST(ResolveBackendKey, MalformedSuffixesThrow) {
  for (const std::string key :
       {"cpu:", "cpu:int4", "cpu:bf16", "cpu:mem=", "cpu:mem=x",
        "cpu::int8", "cpu:mem=-1"})
    EXPECT_THROW(
        resolve_backend_key(key, kernels::Precision::kFp32, 0),
        std::invalid_argument)
        << key;
}

TEST(ParseMemoryBudget, UnitsAndPercentages) {
  EXPECT_EQ(parse_memory_budget("0", 0), 0u);
  EXPECT_EQ(parse_memory_budget("123", 0), 123u);
  EXPECT_EQ(parse_memory_budget("64k", 0), 64u * 1024);
  EXPECT_EQ(parse_memory_budget("512M", 0), 512u * 1024 * 1024);
  EXPECT_EQ(parse_memory_budget("2g", 0), 2 * kGiB);
  EXPECT_EQ(parse_memory_budget("25%", 1000), 250u);
  EXPECT_EQ(parse_memory_budget("1.5k", 0), 1536u);
}

TEST(ParseMemoryBudget, RejectsMalformedInput) {
  for (const std::string spec : {"", "x", "-1", "12q", "%", "m"})
    EXPECT_THROW(parse_memory_budget(spec, 1000), std::invalid_argument)
        << spec;
}

TEST(ParseMemoryBudget, RejectsNonFiniteAndOverflowingValues) {
  // "nan" is a valid stod parse and is not < 0, and 1e300 is finite until
  // the gigabyte multiplier lands — both previously reached the
  // float->size_t cast as UB. The parser must reject, not truncate.
  for (const std::string spec : {"nan", "inf", "1e400", "1e300g", "2e19"})
    EXPECT_THROW(parse_memory_budget(spec, 1000), std::invalid_argument)
        << spec;
  // The largest representable sizes still parse.
  EXPECT_EQ(parse_memory_budget("1e18", 0), std::size_t{1000000000000000000u});
}

}  // namespace
}  // namespace tgnn::runtime
