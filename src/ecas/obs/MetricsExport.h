//===-- ecas/obs/MetricsExport.h - Snapshot exposition ---------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a MetricsSnapshot in three forms: Prometheus text exposition
/// (the service-scrape format, with cumulative `_bucket{le=...}` rows,
/// `_sum`/`_count`, and label-value escaping), a JSON snapshot (one
/// self-contained document for offline diffing), and a human-readable
/// report with p50/p90/p99/max summaries (what `ecas-cli stats`
/// prints). parsePrometheusText() inverts the first form so `stats` can
/// re-render a scraped file and tests can assert round-trips.
///
/// Snapshot files are rewritten through writeFileAtomic (tmp + fsync +
/// rename) so a scraper never observes a torn file.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_METRICSEXPORT_H
#define ECAS_OBS_METRICSEXPORT_H

#include "ecas/obs/Metrics.h"
#include "ecas/support/Error.h"

#include <string>

namespace ecas::obs {

/// Prometheus text exposition format, version 0.0.4: `# HELP` / `# TYPE`
/// preambles, cumulative `_bucket{le="..."}` rows ending in
/// `le="+Inf"`, `_sum` and `_count` per histogram. Label values escape
/// backslash, double quote, and newline.
std::string renderPrometheus(const MetricsSnapshot &Snap);

/// JSON document: `{"metrics": [{"name", "labels", "kind", ...}]}`,
/// histograms carrying bounds/counts/count/sum/min/max.
std::string renderMetricsJson(const MetricsSnapshot &Snap);

/// Human-readable report: counters/gauges as aligned name/value rows,
/// histograms with count/mean/p50/p90/p99/max (bucket-interpolated via
/// the shared support/Stats quantile helper).
std::string renderMetricsReport(const MetricsSnapshot &Snap);

/// Parses Prometheus text exposition back into a snapshot, reassembling
/// `_bucket`/`_sum`/`_count` families into histograms and unescaping
/// label values. Rejects malformed lines with ParseError rather than
/// guessing.
ErrorOr<MetricsSnapshot> parsePrometheusText(const std::string &Text);

} // namespace ecas::obs

#endif // ECAS_OBS_METRICSEXPORT_H
