// The four workloads, each in its untraced (end-to-end) form, plus the
// traced per-layer mode and the reference checks' own test cases.
#ifndef WEBRE_E2EBENCH_WORKLOADS_H_
#define WEBRE_E2EBENCH_WORKLOADS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common.h"
#include "concepts/concept.h"
#include "concepts/constraints.h"
#include "core/pipeline.h"
#include "inputs.h"
#include "reference.h"
#include "restructure/recognizer.h"
#include "serve/frame.h"

namespace e2e {

/// Documents preloaded for the query workloads: the frozen corpus
/// (~20 MB) is ten times the 2 MiB L2 of a core and the responses of
/// a `query_distinct` run are many times the 8 MiB result cache.
inline constexpr size_t kQueryCorpusPages = 8000;
/// Pages in one `batch_map` batch.
inline constexpr size_t kBatchPages = 2000;
/// Distinct pages of one `ingest` round, sent to a fresh server. A
/// fixed count keeps the server's memory and data directory the same
/// size in every round, so peak RSS and stored bytes compare.
inline constexpr size_t kIngestPages = 8192;
/// Matches the server returns per query (ServeOptions::max_results).
inline constexpr size_t kReturned = 100;

/// The resume domain, as `webre` builds it.
struct Domain {
  Domain();
  webre::ConceptSet concepts;
  webre::ConstraintSet constraints;
  webre::SynonymRecognizer recognizer;
};

/// Pipeline options of `webre map --threads=0` (tools/webre_cli.cc
/// MakePipeline with map_documents, one worker per hardware thread and
/// the other flags' defaults).
webre::PipelineOptions MapPipelineOptions();

/// The `--threads` flag of every `webre serve` child: one request worker
/// (and query fan-out thread) per client connection, so the requests of
/// all connections run at once, spread over the CPUs.
std::string ServerThreadsFlag(const RunOptions& options);

/// Reference answer of `query` over `docs` (indexed by document id):
/// the total match count and the first kReturned matches in (doc,
/// document order). Returns "" when `got` agrees, else the difference.
std::string CompareWithReference(const std::string& query,
                                 const webre::serve::Response& got,
                                 const std::vector<RefDoc>& docs);

/// Converts `pages` in-process (as the server does on kIngest) and
/// lowers each to a RefDoc, ordered by the id the server gave it.
/// `page_of_id[id]` is the page acknowledged with `id`.
std::vector<RefDoc> ReferenceCorpus(const std::vector<Page>& pages,
                                    const std::vector<size_t>& page_of_id);

/// One answered request: when its reply was decoded and its round trip.
struct Sample {
  double done = 0.0;
  double rtt_us = 0.0;
};

/// Throughput and median round trip of a timed window, each the median
/// over `slices` equal slices of it: a slice stalled by a neighbour on
/// the host moves either figure by one slice's weight at most.
struct WindowFigures {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
};
WindowFigures Slices(const std::vector<Sample>& samples, double begin,
                     double end, size_t slices);

/// Adds the tails beyond the median (p99, p999, sample count) as notes:
/// printed, not gated.
void AddTails(RunResult& result, const std::vector<Sample>& samples);

RunResult RunIngest(const RunOptions& options);
RunResult RunQueryRepeat(const RunOptions& options);
RunResult RunQueryDistinct(const RunOptions& options);
RunResult RunBatchMap(const RunOptions& options);

/// The traced mode: every layer's public functions over the workload's
/// own inputs, in-process, one span per call; wire figures from a short
/// closed loop against a `webre serve` child.
RunResult RunTraced(const RunOptions& options);

/// Hand-worked cases of the reference evaluator, the content-model
/// validator and the schema check. Appends each failure to `failures`.
void SelfTest(std::vector<std::string>& failures);

}  // namespace e2e

#endif  // WEBRE_E2EBENCH_WORKLOADS_H_
