//===-- bench/BenchCommon.cpp - Shared harness helpers --------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ecas/support/Csv.h"
#include "ecas/support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace ecas;
using namespace ecas::bench;

void ecas::bench::printBanner(const std::string &Experiment,
                              const std::string &PaperClaim) {
  std::printf("================================================================"
              "===============\n");
  std::printf("%s\n", Experiment.c_str());
  std::printf("paper: %s\n", PaperClaim.c_str());
  std::printf("================================================================"
              "===============\n");
}

std::string ecas::bench::bar(double Value, double Max, unsigned Width) {
  if (Max <= 0.0)
    Max = 1.0;
  double Frac = Value / Max;
  if (Frac < 0.0)
    Frac = 0.0;
  if (Frac > 1.0)
    Frac = 1.0;
  unsigned Filled = static_cast<unsigned>(Frac * Width + 0.5);
  std::string Out(Filled, '#');
  Out += std::string(Width - Filled, ' ');
  return Out;
}

std::vector<SchemeRow>
ecas::bench::runComparison(const PlatformSpec &Spec,
                           const std::vector<Workload> &Suite,
                           const PowerCurveSet &Curves,
                           const Metric &Objective) {
  ExecutionSession Session(Spec);
  std::vector<SchemeRow> Rows;
  RunOptions Options;
  Options.Curves = &Curves;
  Options.Objective = Objective;
  for (const Workload &W : Suite) {
    Options.Trace = &W.Trace;
    SessionReport Oracle = Session.run(SchemeKind::Oracle, Options);
    SessionReport Cpu = Session.run(SchemeKind::CpuOnly, Options);
    SessionReport Gpu = Session.run(SchemeKind::GpuOnly, Options);
    SessionReport Perf = Session.run(SchemeKind::Perf, Options);
    SessionReport Eas = Session.run(SchemeKind::Eas, Options);
    SchemeRow Row;
    Row.Abbrev = W.Abbrev;
    Row.CpuEff = Oracle.MetricValue / Cpu.MetricValue;
    Row.GpuEff = Oracle.MetricValue / Gpu.MetricValue;
    Row.PerfEff = Oracle.MetricValue / Perf.MetricValue;
    Row.EasEff = Oracle.MetricValue / Eas.MetricValue;
    Row.OracleAlpha = Oracle.MeanAlpha;
    Row.EasAlpha = Eas.MeanAlpha;
    Rows.push_back(Row);
  }
  return Rows;
}

void ecas::bench::printComparison(const std::vector<SchemeRow> &Rows) {
  std::printf("%-5s %8s %8s %8s %8s   %9s %7s\n", "bench", "CPU", "GPU",
              "PERF", "EAS", "oracle-a", "eas-a");
  double CpuSum = 0, GpuSum = 0, PerfSum = 0, EasSum = 0;
  for (const SchemeRow &Row : Rows) {
    std::printf("%-5s %7.1f%% %7.1f%% %7.1f%% %7.1f%%   %9.1f %7.2f\n",
                Row.Abbrev.c_str(), 100 * Row.CpuEff, 100 * Row.GpuEff,
                100 * Row.PerfEff, 100 * Row.EasEff, Row.OracleAlpha,
                Row.EasAlpha);
    CpuSum += Row.CpuEff;
    GpuSum += Row.GpuEff;
    PerfSum += Row.PerfEff;
    EasSum += Row.EasEff;
  }
  double N = static_cast<double>(Rows.size());
  std::printf("%-5s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "AVG",
              100 * CpuSum / N, 100 * GpuSum / N, 100 * PerfSum / N,
              100 * EasSum / N);
  std::printf("\nrelative efficiency vs Oracle (Oracle = 100%%):\n");
  struct {
    const char *Name;
    double Value;
  } Schemes[] = {{"CPU", CpuSum / N},
                 {"GPU", GpuSum / N},
                 {"PERF", PerfSum / N},
                 {"EAS", EasSum / N}};
  for (const auto &Scheme : Schemes)
    std::printf("  %-5s |%s| %5.1f%%\n", Scheme.Name,
                bar(Scheme.Value, 1.0).c_str(), 100 * Scheme.Value);
}

void ecas::bench::maybeWriteCsv(const Flags &Args,
                                const std::vector<SchemeRow> &Rows) {
  std::string Path = Args.getString("csv", "");
  if (Path.empty())
    return;
  CsvTable Table;
  Table.setHeader(
      {"bench", "cpu_eff", "gpu_eff", "perf_eff", "eas_eff", "oracle_alpha",
       "eas_alpha"});
  for (const SchemeRow &Row : Rows)
    Table.addRow({Row.Abbrev, formatString("%.4f", Row.CpuEff),
                  formatString("%.4f", Row.GpuEff),
                  formatString("%.4f", Row.PerfEff),
                  formatString("%.4f", Row.EasEff),
                  formatString("%.2f", Row.OracleAlpha),
                  formatString("%.2f", Row.EasAlpha)});
  if (Table.writeFile(Path))
    std::printf("\ncsv written to %s\n", Path.c_str());
  else
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
}

void ecas::bench::exitUsage(const Status &Why) {
  std::fprintf(stderr, "error: %s\n", Why.message().c_str());
  std::exit(2);
}

WorkloadConfig ecas::bench::configFromFlags(const Flags &Args,
                                            double DefaultScale) {
  WorkloadConfig Config;
  ErrorOr<double> Scale = Args.getNumber("scale", DefaultScale);
  if (!Scale || !WorkloadConfig::validScale(*Scale)) {
    std::fprintf(stderr,
                 "error: --scale wants a number in (0, %g], got '%s'\n",
                 WorkloadConfig::MaxScale,
                 Args.getString("scale", "").c_str());
    std::exit(2);
  }
  Config.Scale = *Scale;
  Config.Seed =
      static_cast<uint64_t>(numberFlag<long long>(Args, "seed", 0x5eed));
  return Config;
}
