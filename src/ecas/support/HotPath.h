//===-- ecas/support/HotPath.h - Hot-path discipline macros ----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ECAS_HOT function attribute marking the steady-state decision
/// path (DESIGN.md §14): the table-G lock-free lookup, the analytical
/// model evaluation, the alpha search, and the EasScheduler table-hit
/// decision, dispatch and finish. Functions carrying it are the roots
/// tools/ecas_hotpath.py walks; everything reachable from a root must be
/// allocation-free, exception-free, lock-disciplined (only the
/// KernelHistory shard leaf lock), and must not block on IO. Violations
/// are findings unless the offending call carries an
/// `// ecas-hotpath: allow(rule)` suppression with a justification.
///
/// Under Clang the macro also attaches annotate("ecas_hot") so the
/// libclang engine reads roots straight off the AST; GCC would warn on
/// the unknown annotate attribute (and -Werror is on), so it only gets
/// the optimizer hint there. The textual engine keys on the ECAS_HOT
/// token itself, which both compilers see.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_SUPPORT_HOTPATH_H
#define ECAS_SUPPORT_HOTPATH_H

#if defined(__clang__)
#define ECAS_HOT __attribute__((hot, annotate("ecas_hot")))
#elif defined(__GNUC__)
#define ECAS_HOT __attribute__((hot))
#else
#define ECAS_HOT
#endif

#endif // ECAS_SUPPORT_HOTPATH_H
