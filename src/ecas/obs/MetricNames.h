//===-- ecas/obs/MetricNames.h - Canonical metric names --------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every metric name the runtime registers, in one place. Names are
/// lowercase snake_case with the `eas_` prefix; ecas-lint's metric-name
/// rule checks both the literals here and that no other file under
/// src/ecas registers an instrument with an inline string — new metrics
/// get a constant here first, so the taxonomy in DESIGN.md §11 stays
/// the complete list.
///
/// Units follow Prometheus conventions: a `_seconds`/`_joules` suffix
/// for physical quantities, `_total` for monotonic event counts, bare
/// names for distributions of dimensionless ratios (rel-errors, alpha).
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_OBS_METRICNAMES_H
#define ECAS_OBS_METRICNAMES_H

namespace ecas::obs::names {

// Model fidelity — the paper's headline question (how well T(alpha) and
// P(alpha) track reality), as |predicted - measured| / measured.
inline constexpr char ModelTimeRelError[] = "eas_model_time_rel_error";
inline constexpr char ModelEnergyRelError[] = "eas_model_energy_rel_error";

// Decision shape.
inline constexpr char AlphaChosen[] = "eas_alpha_chosen";
inline constexpr char AlphaSearchEvals[] = "eas_alpha_search_evaluations";
inline constexpr char ProfileOverheadFraction[] =
    "eas_profile_overhead_fraction";

// Invocation lifecycle.
inline constexpr char InvocationSeconds[] = "eas_invocation_seconds";
inline constexpr char InvocationsTotal[] = "eas_invocations_total";
inline constexpr char TableHitsTotal[] = "eas_table_hits_total";
inline constexpr char TableMissesTotal[] = "eas_table_misses_total";
inline constexpr char CpuOnlyTotal[] = "eas_cpu_only_total";
inline constexpr char CancelledTotal[] = "eas_cancelled_total";
inline constexpr char RejectedTotal[] = "eas_rejected_total";
inline constexpr char ProfileRepsTotal[] = "eas_profile_reps_total";
inline constexpr char ProfileRepSeconds[] = "eas_profile_rep_seconds";

// GPU health (fault layer).
inline constexpr char LaunchRetriesTotal[] = "eas_launch_retries_total";
inline constexpr char HangsTotal[] = "eas_health_hangs_total";
inline constexpr char QuarantinesTotal[] = "eas_health_quarantines_total";
inline constexpr char RecoveriesTotal[] = "eas_health_recoveries_total";
inline constexpr char ProbesTotal[] = "eas_health_probes_total";
inline constexpr char ReadmissionsTotal[] = "eas_health_readmissions_total";
inline constexpr char QuarantinedRunsTotal[] = "eas_quarantined_runs_total";

// Service lifecycle.
inline constexpr char ShutdownDrainSeconds[] = "eas_shutdown_drain_seconds";

// Table-G durability (DESIGN.md §13): the write-ahead journal's append
// side, what recovery replayed or had to truncate, how long it took,
// and how it classified the on-disk state (labelled "outcome":
// clean / replayed / truncated / cold).
inline constexpr char HistoryJournalAppendsTotal[] =
    "eas_history_journal_appends_total";
inline constexpr char HistoryJournalBytesTotal[] =
    "eas_history_journal_bytes_total";
inline constexpr char HistoryReplayedRecordsTotal[] =
    "eas_history_replayed_records_total";
inline constexpr char HistoryTruncatedRecordsTotal[] =
    "eas_history_truncated_records_total";
inline constexpr char RecoverySeconds[] = "eas_recovery_seconds";
inline constexpr char HistoryRecoveryOutcome[] =
    "eas_history_recovery_outcome";

// Multi-tenant service front end (service layer). Labelled by SLA class
// ("sla"), rejection reason ("reason"), and — for the shed counter the
// soak harness audits — the tenant ("tenant").
inline constexpr char ServiceSubmittedTotal[] = "eas_service_submitted_total";
inline constexpr char ServiceAdmittedTotal[] = "eas_service_admitted_total";
inline constexpr char ServiceRejectedTotal[] = "eas_service_rejected_total";
inline constexpr char ServiceShedTotal[] = "eas_service_shed_total";
inline constexpr char ServiceCompletedTotal[] = "eas_service_completed_total";
inline constexpr char ServiceCancelledTotal[] = "eas_service_cancelled_total";
inline constexpr char ServiceQueueDepth[] = "eas_service_queue_depth";
inline constexpr char ServiceQueueWaitSeconds[] =
    "eas_service_queue_wait_seconds";
inline constexpr char ServiceRetryAfterSeconds[] =
    "eas_service_retry_after_seconds";
inline constexpr char ServiceDeadlineMissTotal[] =
    "eas_service_deadline_miss_total";

// Forensics (obs layer, DESIGN.md §16): cumulative wall seconds spent in
// each P-state (labelled "pstate"), and incident bundles captured.
inline constexpr char PStateResidencySeconds[] =
    "eas_pstate_residency_seconds";
inline constexpr char IncidentsTotal[] = "eas_incidents_total";

// Simulated RAPL plumbing (sim layer).
inline constexpr char MsrReadsTotal[] = "eas_msr_reads_total";

} // namespace ecas::obs::names

#endif // ECAS_OBS_METRICNAMES_H
