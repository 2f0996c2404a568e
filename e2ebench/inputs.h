// Inputs of the benchmark, all derived from the run's --seed: resume
// pages from the repository's corpus generator (all twelve author
// styles, drawn with the generator's own weights) and path queries.
#ifndef WEBRE_E2EBENCH_INPUTS_H_
#define WEBRE_E2EBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace e2e {

/// One generated page plus the ground-truth facts the checks and the
/// query generator use.
struct Page {
  std::string html;
  /// The author's phone number, e.g. "(212) 845-3041": ten random
  /// digits, so nearly always a fact of this page alone (the ingest
  /// check counts, and uses only pages where it is).
  std::string phone;
  /// Field values of the ground truth, the pool query needles come
  /// from: education, experience, skills and course values.
  std::vector<std::string> values;
};

/// Page `index` of the corpus for `seed`. Pure: the same (seed, index)
/// always gives the same page, whatever order pages are made in.
/// `with_values` = false leaves Page::values empty.
Page MakePage(uint64_t seed, size_t index, bool with_values = true);

/// The query plans of the repository (query.plan.* counters).
enum class Plan { kSummary = 0, kSweep = 1, kSeeded = 2, kScan = 3 };
inline constexpr size_t kPlanCount = 4;
const char* PlanName(Plan plan);

/// The small fixed query set of `query_repeat`: shapes of every plan,
/// few enough that all responses fit the server's result cache.
const std::vector<std::string>& RepeatQueries();

/// Draws queries that never repeat within one generator: one template
/// per plan, taken in turn, each with a needle cut from a value of a
/// corpus page (3 to 12 characters, lower-case).
class DistinctQueries {
 public:
  /// `pages` must outlive the generator.
  DistinctQueries(const std::vector<Page>* pages, uint64_t seed);

  /// The next query text. Never returns a text it returned before.
  std::string Next();

  /// Queries returned so far.
  size_t count() const { return count_; }

 private:
  std::string Needle();

  const std::vector<Page>* pages_;
  webre::Rng rng_;
  std::unordered_set<std::string> used_;
  size_t count_ = 0;
};

}  // namespace e2e

#endif  // WEBRE_E2EBENCH_INPUTS_H_
