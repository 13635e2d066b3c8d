// Machine-readable run reports: serializes run metrics to JSON (no
// external dependencies) so downstream tooling can consume simulation
// results without scraping tables.
#pragma once

#include <iosfwd>
#include <string>

#include "src/common/json.hpp"  // json_escape, for callers of this header
#include "src/noc/stats.hpp"
#include "src/sim/runner.hpp"

namespace dozz {

/// Serializes the metrics of one run as a JSON object (single line).
std::string metrics_to_json(const NetworkMetrics& metrics);

/// Serializes a full run outcome: policy, trace, and metrics.
std::string outcome_to_json(const RunOutcome& outcome);

/// Writes a human-readable report of one run to `out`.
void write_text_report(std::ostream& out, const RunOutcome& outcome);

/// Writes a comparison of a run against a baseline run (savings, losses).
void write_comparison_report(std::ostream& out, const RunOutcome& baseline,
                             const RunOutcome& outcome);

}  // namespace dozz
