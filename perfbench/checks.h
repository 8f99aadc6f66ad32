#ifndef COLR_PERFBENCH_CHECKS_H_
#define COLR_PERFBENCH_CHECKS_H_

// Output checks shared by the workloads. They compare the program's
// answers with the benchmark's own brute-force computation or with
// properties the method must have, never with a saved earlier output.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/query.h"
#include "relational/executor.h"

namespace colr::perfbench {

/// One result group as the portal reports it: the group's weight (all
/// its sensors) and the readings that answered for it.
struct GroupCount {
  int64_t sensors = 0;
  int64_t sampled = 0;
};

/// Groups of an aggregate answer in relation form (the `sensors` and
/// `sampled` columns of SensorPortal's group rows).
std::vector<GroupCount> GroupsOf(const rel::Relation& relation);

/// Groups of an engine result, filtered the way the portal formats
/// them (groups with neither readings nor weight are not reported).
std::vector<GroupCount> GroupsOf(const QueryResult& result);

/// Parses a wire reply body: valid JSON, an object whose `columns` are
/// exactly the portal's group columns and whose `rows` are arrays of
/// that width. Returns an empty string on success, else the reason.
std::string ParseGroupReply(std::string_view json,
                            std::vector<GroupCount>* out);

/// Probe requests of one query that yielded no reading: requested
/// (issued + coalesced + reused + shed) minus readings collected.
inline int64_t FailedProbes(const QueryStats& s) {
  return s.sensors_probed + s.probes_coalesced + s.probes_reused +
         s.probes_shed - s.probe_successes;
}

/// Checks one answer against the brute-force in-region sensor count.
/// Every answer: no group holds more readings than sensors, and the
/// readings do not exceed the sensors in the region. Exact answers
/// (SAMPLESIZE 0) additionally account for every in-region sensor:
/// readings + failed probes == in-region count. Returns an empty
/// string when the answer passes, else what failed.
std::string CheckAnswer(const std::vector<GroupCount>& groups,
                        int in_region, bool exact, int64_t failed_probes);

}  // namespace colr::perfbench

#endif  // COLR_PERFBENCH_CHECKS_H_
