//===-- perfbench/src/SelfTest.cpp - The benchmark's own tests ------------===//
//
// Part of the ecas project, under the MIT License.
//
// Pins the percentile rule (computed through support/Stats'
// quantileSorted), the result line's schema, and the metric catalogue's
// naming rules. perfbench/selftest.py adds the checks that need
// BENCHMARK.json and a real run.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ecas/support/Stats.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

/// Samples ranked strictly above the interpolation position of \p Q.
double beyond(size_t N, double Q) {
  // The epsilon absorbs rounding in Q * (N - 1) for Q = (N - 11) / (N - 1).
  return static_cast<double>(N - 1) -
         std::floor(Q * static_cast<double>(N - 1) + 1e-9);
}

void testTailLevel() {
  expect(std::isnan(tailLevel(10)), "no tail level below 11 samples");
  expect(tailLevel(11) == 0.0, "11 samples: the minimum has 10 above it");
  expect(tailLevel(902) == 0.99, "902 samples reach p99");
  expect(tailLevel(901) < 0.99, "901 samples do not reach p99");
  expect(tailLevel(100000) == 0.99, "large samples cap at p99");
  expect(tailLevel(200, 0.9) == 0.9, "the cap is honoured");
  for (size_t N = 11; N != 3000; ++N) {
    double Level = tailLevel(N);
    expect(beyond(N, Level) >= 10.0,
           "tail level leaves ten samples above it at N=" + std::to_string(N));
    // Below the cap, no higher order statistic also has ten above it.
    if (Level < 0.99)
      expect(std::floor(Level * static_cast<double>(N - 1) + 1e-9) ==
                 static_cast<double>(N - 11),
             "tail level is the highest qualifying at N=" +
                 std::to_string(N));
  }
}

void testSamples() {
  Samples S;
  for (int I = 1000; I >= 1; --I)
    S.add(I);
  std::vector<double> Sorted;
  for (int I = 1; I <= 1000; ++I)
    Sorted.push_back(I);
  expect(S.quantile(0.5) == ecas::quantileSorted(Sorted, 0.5),
         "median goes through quantileSorted");
  expect(S.tail() == ecas::quantileSorted(Sorted, tailLevel(1000)),
         "tail goes through quantileSorted at the tail level");
  expect(S.quantile(0.5) == 500.5, "median of 1..1000");
  Samples Few;
  for (int I = 0; I != 5; ++I)
    Few.add(I);
  expect(Few.tail() == 0.0, "too few samples report no tail");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

bool validName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '.' && C != '-')
      return false;
  return true;
}

bool validUnit(const std::string &Unit) {
  if (Unit.empty() || Unit.size() > 16)
    return false;
  for (char C : Unit)
    if (!std::isalnum(static_cast<unsigned char>(C)) &&
        std::string("_/%.-").find(C) == std::string::npos)
      return false;
  return true;
}

void testCatalogue() {
  std::set<std::string> Seen;
  for (const auto *Catalogue : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricSpec &Spec : *Catalogue) {
      expect(validName(Spec.Name), std::string("bad name ") + Spec.Name);
      expect(validUnit(Spec.Unit), std::string("bad unit ") + Spec.Unit);
      expect(std::string(Spec.Better) == "higher" ||
                 std::string(Spec.Better) == "lower",
             std::string("bad direction for ") + Spec.Name);
      expect(Seen.insert(Spec.Name).second,
             std::string("duplicate metric ") + Spec.Name);
    }
  for (const std::string &Name : workloadNames())
    expect(validName(Name) && Seen.insert(Name).second,
           "bad or duplicate workload " + Name);
  expect(endToEndMetrics().size() <= 16, "at most 16 end-to-end metrics");
  expect(perLayerMetrics().size() <= 128, "at most 128 per-layer metrics");
  expect(efficiencyMetricNames().size() == 38,
         "2 objectives x (12 desktop + 7 tablet) inputs");
  bool HasSetup = false;
  for (const MetricSpec &Spec : endToEndMetrics())
    HasSetup |= std::string(Spec.Name) == "setup_s" &&
                std::string(Spec.Unit) == "s" &&
                std::string(Spec.Better) == "lower";
  expect(HasSetup, "setup_s is an end-to-end metric in s, lower better");
}

void testResultJson() {
  RunResult R;
  R.Attempted = 7;
  R.Failed = 1;
  R.set("inv_per_s", 12.5);
  R.set("not_in_catalogue", 3.0);
  std::string Json = renderResultJson(R, endToEndMetrics());
  expect(Json.rfind("{\"correct\": true, \"attempted\": 7, \"failed\": 1, "
                    "\"metrics\": {",
                    0) == 0,
         "result line starts with the four keys in order: " + Json);
  expect(Json.find("not_in_catalogue") == std::string::npos,
         "only catalogue metrics are printed");
  for (const MetricSpec &Spec : endToEndMetrics())
    expect(Json.find(std::string("\"") + Spec.Name + "\": {\"value\": ") !=
               std::string::npos,
           std::string("metric present: ") + Spec.Name);
  expect(Json.find("\"inv_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}") !=
             std::string::npos,
         "values keep their digits and units: " + Json);
  R.check(false, "boom");
  expect(!R.Correct && R.Errors.size() == 1, "a failed check marks the run");
  expect(renderResultJson(R, endToEndMetrics()).rfind("{\"correct\": false",
                                                      0) == 0,
         "an incorrect run says so");
  expect(Json.back() == '}' && Json.find('\n') == std::string::npos,
         "the result is one line");
}

} // namespace

int perfbench::runSelfTests() {
  testTailLevel();
  testSamples();
  testCatalogue();
  testResultJson();
  std::printf("perfbench self-test: %s (%d failures)\n",
              Failures ? "FAILED" : "ok", Failures);
  return Failures;
}
