// The traced mode: the workload's own inputs go through each layer's
// public functions in-process, with one span around each call; the wire
// figures (ping round trip, cache and wakeup counters, the workload's
// own wire p50) come from a short closed loop against a `webre serve`
// child. Every per-layer metric is reported for every workload, each
// over that workload's inputs.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "html/parser.h"
#include "html/tidy.h"
#include "mapping/document_mapper.h"
#include "repository/query.h"
#include "repository/repository.h"
#include "restructure/consolidation_rule.h"
#include "restructure/converter.h"
#include "restructure/grouping_rule.h"
#include "restructure/instance_rule.h"
#include "restructure/tokenize_rule.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "schema/path_extractor.h"
#include "serve/server.h"
#include "server_process.h"
#include "spans.h"
#include "storage/durable_repository.h"
#include "storage/wal.h"
#include "wire.h"
#include "workloads.h"
#include "xml/flat_doc.h"

namespace e2e {

namespace {

using webre::serve::MsgType;
using webre::serve::Request;
using webre::serve::Response;

// Pages of the ingest stream put through the layers in-process.
constexpr size_t kTraceIngestPages = 2000;
// Distinct queries put through the repository and serve layers.
constexpr size_t kTraceQueries = 400;
// Rounds of the repeat set (12 queries) in-process.
constexpr size_t kTraceRepeatRounds = 20;
// kIngest requests executed on an in-process server.
constexpr size_t kTraceExecuteIngest = 500;
// Pings timed over the wire.
constexpr size_t kTracePings = 2000;

const char* const kQuerySpan[kPlanCount] = {
    "repository.query.summary", "repository.query.sweep",
    "repository.query.seeded", "repository.query.scan"};

double MedianSpan(const SpanLog& log, const std::string& name) {
  return Median(log.DurationsUs(name));
}

// Which query.plan.* counter moved between two snapshots.
Plan PlanOf(const webre::obs::QueryStatsView& before,
            const webre::obs::QueryStatsView& after) {
  if (after.plan_sweep != before.plan_sweep) return Plan::kSweep;
  if (after.plan_seeded != before.plan_seeded) return Plan::kSeeded;
  if (after.plan_scan != before.plan_scan) return Plan::kScan;
  return Plan::kSummary;
}

struct WireFigures {
  double ping_rtt_us = 0.0;
  double p50_us = 0.0;
  double cache_hit_ratio = 0.0;
  double wakeups_per_request = 0.0;
};

struct StatsSnapshot {
  double hits = 0, misses = 0, wakeups = 0, requests = 0;
};

bool ReadStats(uint16_t port, StatsSnapshot* out, std::string* error) {
  Request request;
  request.type = MsgType::kStats;
  Response response;
  if (!CallOnce(port, request, &response, error)) return false;
  const std::string& json = response.stats_json;
  out->hits = static_cast<double>(StatsValue(json, "serve", "cache_hits"));
  out->misses = static_cast<double>(StatsValue(json, "serve", "cache_misses"));
  out->wakeups = static_cast<double>(StatsValue(json, "serve", "wakeups"));
  out->requests = static_cast<double>(StatsValue(json, "serve", "requests"));
  return true;
}

// The wire part of the traced mode. `preload` pages are ingested first
// (untimed); then pings, then `seconds` of the workload's own traffic
// as produced by `next`.
bool MeasureWire(const RunOptions& options, const std::vector<Page>& preload,
                 double seconds, const ClosedLoop::NextFn& next,
                 WireFigures* out, RunResult& result, std::string* error) {
  auto server = ServerProcess::Start(options.bin_dir + "/webre",
                                     {ServerThreadsFlag(options)}, error);
  if (server == nullptr) return false;
  const uint16_t port = server->port();
  {
    auto loop = ClosedLoop::Connect(port, options.connections, error);
    if (loop == nullptr) return false;
    size_t sent = 0;
    auto next_page = [&](size_t, Request& request) {
      if (sent == preload.size()) return false;
      request.type = MsgType::kIngest;
      request.body = preload[sent++].html;
      return true;
    };
    auto done = [&](size_t, const Request&, Response& response, double) {
      ++result.attempted;
      if (!response.ok()) ++result.failed;
    };
    if (!loop->Run(1e300, next_page, done, error)) return false;
  }
  {
    auto loop = ClosedLoop::Connect(port, 1, error);
    if (loop == nullptr) return false;
    size_t pings = 0;
    std::vector<double> rtt_us;
    auto next_ping = [&](size_t, Request& request) {
      if (pings == kTracePings) return false;
      ++pings;
      request.type = MsgType::kPing;
      request.body.clear();
      return true;
    };
    auto done = [&](size_t, const Request&, Response& response, double rtt) {
      ++result.attempted;
      if (!response.ok()) ++result.failed;
      rtt_us.push_back(rtt * 1e6);
    };
    if (!loop->Run(1e300, next_ping, done, error)) return false;
    out->ping_rtt_us = Median(rtt_us);
  }
  StatsSnapshot before;
  StatsSnapshot after;
  if (!ReadStats(port, &before, error)) return false;
  std::vector<double> rtt_us;
  {
    auto loop = ClosedLoop::Connect(port, options.connections, error);
    if (loop == nullptr) return false;
    auto done = [&](size_t, const Request&, Response& response, double rtt) {
      ++result.attempted;
      if (!response.ok()) ++result.failed;
      rtt_us.push_back(rtt * 1e6);
    };
    if (!loop->Run(Now() + seconds, next, done, error)) return false;
  }
  if (!ReadStats(port, &after, error)) return false;
  const double lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  out->cache_hit_ratio = lookups > 0 ? (after.hits - before.hits) / lookups : 0;
  // The stats request itself is one of the requests counted.
  const double requests = after.requests - before.requests;
  out->wakeups_per_request =
      requests > 0 ? (after.wakeups - before.wakeups) / requests : 0.0;
  out->p50_us = Median(rtt_us);
  result.Check(server->Stop(), "traced server did not exit cleanly");
  return true;
}

}  // namespace

RunResult RunTraced(const RunOptions& options) {
  RunResult result;
  SpanLog log;
  const std::string& workload = options.workload;
  const bool ingest = workload == "ingest";

  // The workload's own inputs.
  size_t page_count = kBatchPages;
  if (ingest) page_count = kTraceIngestPages;
  if (workload == "query_repeat" || workload == "query_distinct") {
    page_count = kQueryCorpusPages;
  }
  std::vector<Page> pages;
  pages.reserve(page_count);
  for (size_t i = 0; i < page_count; ++i) {
    pages.push_back(MakePage(options.seed, i));
  }
  DistinctQueries generator(&pages, options.seed);
  std::vector<std::string> queries;
  if (workload == "query_repeat") {
    for (size_t round = 0; round < kTraceRepeatRounds; ++round) {
      for (const std::string& q : RepeatQueries()) queries.push_back(q);
    }
  } else {
    for (size_t i = 0; i < kTraceQueries; ++i) {
      queries.push_back(generator.Next());
    }
  }

  Domain domain;
  webre::ConvertOptions convert;
  convert.root_name = "resume";
  const webre::DocumentConverter converter(
      &domain.concepts, &domain.recognizer, &domain.constraints, convert);
  webre::RepositoryOptions repo_options;
  // The fan-out of the served repository (ServerThreadsFlag).
  repo_options.query_threads = options.connections;
  webre::XmlRepository repo(repo_options);

  ::mkdir((options.work_dir + "/durable").c_str(), 0755);
  webre::storage::DurableOptions durable_options;
  durable_options.repository = repo_options;
  auto durable = webre::storage::DurableRepository::Open(
      options.work_dir + "/durable", durable_options);
  auto wal = webre::storage::WalWriter::Open(options.work_dir + "/trace.wal",
                                             /*seed_hash=*/0);
  if (!durable.ok() || !wal.ok()) {
    result.Check(false, "cannot open the traced run's storage");
    return result;
  }

  // Layers html, restructure, xml, schema (extraction), repository
  // (admission) and storage (WAL), page by page.
  std::vector<std::unique_ptr<webre::Node>> batch_docs;
  std::vector<webre::DocumentPaths> batch_paths;
  std::vector<RefDoc> ref_docs;
  double elements = 0, flat_bytes = 0, wal_bytes = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    const std::string& html = pages[i].html;
    ++result.attempted;
    const uint32_t page_span = log.Begin("page", SpanLog::kNoParent, i);
    std::unique_ptr<webre::Node> tree;
    {
      Scoped s(log, "html.parse", page_span, i);
      tree = webre::ParseHtml(html, convert.parse);
    }
    webre::Node* root = tree.get();
    {
      Scoped s(log, "html.tidy", page_span, i);
      webre::TidyHtmlTree(root, convert.tidy);
    }
    {
      Scoped s(log, "restructure.tokenize", page_span, i);
      webre::ApplyTokenizationRule(root, convert.tokenize);
    }
    {
      Scoped s(log, "restructure.instance", page_span, i);
      webre::ApplyConceptInstanceRule(root, domain.recognizer,
                                      &domain.constraints);
    }
    {
      Scoped s(log, "restructure.group", page_span, i);
      webre::ApplyGroupingRule(root);
    }
    {
      Scoped s(log, "restructure.consolidate", page_span, i);
      webre::ApplyConsolidationRule(root, domain.concepts,
                                    &domain.constraints);
    }
    tree.reset();
    std::unique_ptr<webre::Node> parsed = webre::ParseHtml(html, convert.parse);
    std::unique_ptr<webre::Node> doc;
    {
      Scoped s(log, "restructure.convert", page_span, i);
      doc = converter.ConvertTree(std::move(parsed));
    }
    elements += static_cast<double>(doc->SubtreeSize());
    ref_docs.push_back(LowerDocument(*doc));
    webre::DocumentPaths paths;
    {
      Scoped s(log, "schema.extract", page_span, i);
      paths = webre::ExtractPaths(*doc);
    }
    std::unique_ptr<webre::FlatDoc> flat;
    {
      Scoped s(log, "xml.freeze", page_span, i);
      flat = webre::FlatDoc::Freeze(*doc);
    }
    flat_bytes += static_cast<double>(flat->block_bytes());
    std::string record;
    {
      Scoped s(log, "storage.wal_encode", page_span, i);
      record = webre::storage::EncodeWalRecord(i, *flat);
    }
    wal_bytes += static_cast<double>(record.size());
    {
      Scoped s(log, "storage.wal_append", page_span, i);
      if (!wal.value()->Append(record, /*sync=*/false).ok()) ++result.failed;
    }
    {
      Scoped s(log, "repository.add", page_span, i);
      if (!repo.AddFrozen(std::move(flat), paths).ok()) ++result.failed;
    }
    if (!durable.value()->Add(doc->Clone()).ok()) ++result.failed;
    if (batch_docs.size() < kBatchPages) {
      batch_docs.push_back(std::move(doc));
      batch_paths.push_back(std::move(paths));
    }
    log.End(page_span);
  }
  const double n = static_cast<double>(pages.size());

  {
    Scoped s(log, "storage.checkpoint");
    if (!durable.value()->Checkpoint().ok()) ++result.failed;
  }
  durable.value().reset();
  {
    Scoped s(log, "storage.open");
    auto reopened = webre::storage::DurableRepository::Open(
        options.work_dir + "/durable", durable_options);
    if (!reopened.ok() ||
        reopened.value()->repo().size() != pages.size()) {
      result.Check(false, "reopened durable repository lost documents");
    }
  }
  result.attempted += 2;

  // Layers schema (discovery, DTD), mapping and core over one batch.
  const webre::PipelineOptions map_options = MapPipelineOptions();
  webre::MiningOptions mining = map_options.mining;
  mining.constraints = &domain.constraints;
  webre::FrequentPathMiner miner(mining);
  webre::MajoritySchema schema;
  {
    Scoped s(log, "schema.discover");
    for (const webre::DocumentPaths& paths : batch_paths) {
      miner.AddDocumentPaths(paths);
    }
    schema = miner.Discover();
  }
  webre::Dtd dtd;
  {
    Scoped s(log, "schema.dtd");
    dtd = webre::BuildDtd(schema, map_options.dtd);
  }
  double changed = 0;
  for (size_t i = 0; i < batch_docs.size(); ++i) {
    ++result.attempted;
    webre::ConformResult mapped;
    {
      Scoped s(log, "mapping.conform", SpanLog::kNoParent, i);
      mapped = webre::ConformToSchema(*batch_docs[i], schema, dtd);
    }
    const webre::MappingReport& report = mapped.report;
    if (report.nodes_removed + report.nodes_inserted + report.reorder_moves >
        0) {
      ++changed;
    }
    if (!report.conforms) ++result.failed;
  }
  {
    std::vector<std::string> batch_html;
    for (size_t i = 0; i < batch_docs.size(); ++i) {
      batch_html.push_back(pages[i].html);
    }
    const webre::Pipeline pipeline(&domain.concepts, &domain.recognizer,
                                   &domain.constraints, map_options);
    Scoped s(log, "core.pipeline");
    const webre::PipelineResult batch = pipeline.Run(batch_html);
    result.attempted += batch_html.size();
    result.failed += batch.failed_documents;
  }

  // Layer repository: parse and evaluate each query, binned by plan.
  double matches = 0, predicate_bytes = 0, returned = 0;
  size_t plan_seen[kPlanCount] = {};
  constexpr size_t kReferenceSample = 16;
  for (size_t q = 0; q < queries.size(); ++q) {
    ++result.attempted;
    webre::StatusOr<webre::PathQuery> parsed =
        webre::Status::Internal("not parsed");
    {
      Scoped s(log, "repository.parse", SpanLog::kNoParent, q);
      parsed = webre::PathQuery::Parse(queries[q]);
    }
    if (!parsed.ok()) {
      ++result.failed;
      continue;
    }
    const webre::obs::QueryStatsView before = repo.query_stats();
    const double begin = Now();
    std::vector<webre::QueryMatch> found = repo.Query(parsed.value());
    const double end = Now();
    const webre::obs::QueryStatsView after = repo.query_stats();
    // The span is named after the plan the call took.
    const Plan plan = PlanOf(before, after);
    ++plan_seen[static_cast<size_t>(plan)];
    log.Add(kQuerySpan[static_cast<size_t>(plan)], begin, end,
            SpanLog::kNoParent, q);
    matches += static_cast<double>(found.size());
    predicate_bytes += static_cast<double>(after.predicate_bytes_scanned -
                                           before.predicate_bytes_scanned);
    returned += static_cast<double>(std::min(found.size(), kReturned));
    if (q < kReferenceSample) {
      Response response;
      response.total_matches = found.size();
      const webre::NameTable& names = webre::NameTable::Global();
      for (size_t m = 0; m < found.size() && m < kReturned; ++m) {
        response.matches.push_back(webre::serve::WireMatch{
            found[m].doc, found[m].pos,
            std::string(names.NameOf(found[m].name())),
            std::string(found[m].val())});
      }
      const std::string diff =
          CompareWithReference(queries[q], response, ref_docs);
      result.Check(diff.empty(), "in-process " + diff);
    }
  }
  for (size_t p = 0; p < kPlanCount; ++p) {
    result.Check(plan_seen[p] > 0, std::string("no query took plan ") +
                                       PlanName(static_cast<Plan>(p)));
  }

  // Layer serve, in-process: Execute on a fresh server per round (so
  // the first execution of each query misses and the second hits),
  // then frame encode and decode of the response.
  {
    const size_t rounds = workload == "query_repeat" ? kTraceRepeatRounds : 1;
    const size_t per_round = queries.size() / rounds;
    for (size_t round = 0; round < rounds; ++round) {
      webre::serve::ServeContext context;
      context.repo = &repo;
      webre::serve::Server server(context, webre::serve::ServeOptions{});
      for (size_t k = 0; k < per_round; ++k) {
        const size_t q = round * per_round + k;
        Request request;
        request.type = MsgType::kQuery;
        request.id = static_cast<uint32_t>(q + 1);
        request.body = queries[q];
        result.attempted += 2;
        Response miss;
        {
          Scoped s(log, "serve.execute.query_miss", SpanLog::kNoParent, q);
          miss = server.Execute(request);
        }
        Response hit;
        {
          Scoped s(log, "serve.execute.query_hit", SpanLog::kNoParent, q);
          hit = server.Execute(request);
        }
        if (!miss.ok()) ++result.failed;
        if (!hit.ok()) ++result.failed;
        std::string frame;
        {
          Scoped s(log, "serve.encode", SpanLog::kNoParent, q);
          webre::serve::EncodeResponse(hit, frame);
        }
        webre::serve::FrameDecoder decoder(64u << 20);
        decoder.Append(frame);
        Response decoded;
        {
          Scoped s(log, "serve.decode", SpanLog::kNoParent, q);
          if (decoder.NextResponse(decoded) !=
              webre::serve::FrameStatus::kFrame) {
            ++result.failed;
          }
        }
      }
      result.Check(server.stats().view.cache_hits == per_round,
                   "second execution of a query was not a cache hit");
    }
  }
  {
    webre::XmlRepository ingest_repo(repo_options);
    webre::serve::ServeContext context;
    context.repo = &ingest_repo;
    context.converter = &converter;
    webre::serve::Server server(context, webre::serve::ServeOptions{});
    for (size_t i = 0; i < pages.size() && i < kTraceExecuteIngest; ++i) {
      Request request;
      request.type = MsgType::kIngest;
      request.id = static_cast<uint32_t>(i + 1);
      request.body = pages[i].html;
      ++result.attempted;
      Response response;
      {
        Scoped s(log, "serve.execute.ingest", SpanLog::kNoParent, i);
        response = server.Execute(request);
      }
      if (!response.ok()) ++result.failed;
    }
  }

  // Wire figures: the workload's own traffic for a quarter of the run
  // length (at most 3 s), after pings.
  WireFigures wire;
  std::string error;
  const double wire_seconds = std::min(3.0, options.seconds / 4);
  const std::vector<std::string>& repeat = RepeatQueries();
  size_t sent = 0;
  size_t next_ingest = pages.size();
  auto next = [&](size_t, Request& request) {
    if (ingest) {
      request.type = MsgType::kIngest;
      request.body = MakePage(options.seed, next_ingest++, false).html;
      return true;
    }
    request.type = MsgType::kQuery;
    request.body = workload == "query_repeat" ? repeat[sent++ % repeat.size()]
                                              : generator.Next();
    return true;
  };
  // query_repeat warms the cache with one round before it is measured.
  std::vector<Page> preload = ingest ? std::vector<Page>() : pages;
  if (!MeasureWire(options, preload, wire_seconds, next, &wire, result,
                   &error)) {
    result.Check(false, "wire measurement: " + error);
  }

  // The per-layer metrics.
  const double rules = MedianSpan(log, "restructure.tokenize") +
                       MedianSpan(log, "restructure.instance") +
                       MedianSpan(log, "restructure.group") +
                       MedianSpan(log, "restructure.consolidate");
  result.Add("html.parse_us", MedianSpan(log, "html.parse"), "us");
  result.Add("html.tidy_us", MedianSpan(log, "html.tidy"), "us");
  result.Add("restructure.tokenize_us",
             MedianSpan(log, "restructure.tokenize"), "us");
  result.Add("restructure.instance_us",
             MedianSpan(log, "restructure.instance"), "us");
  result.Add("restructure.group_us", MedianSpan(log, "restructure.group"),
             "us");
  result.Add("restructure.consolidate_us",
             MedianSpan(log, "restructure.consolidate"), "us");
  result.Add("restructure.convert_us", MedianSpan(log, "restructure.convert"),
             "us");
  result.Add("restructure.elements_per_page", elements / n, "count");
  result.Add("xml.freeze_us", MedianSpan(log, "xml.freeze"), "us");
  result.Add("xml.flat_bytes_per_page", flat_bytes / n, "bytes");
  result.Add("schema.extract_us", MedianSpan(log, "schema.extract"), "us");
  result.Add("schema.discover_ms", MedianSpan(log, "schema.discover") / 1e3,
             "ms");
  result.Add("schema.dtd_ms", MedianSpan(log, "schema.dtd") / 1e3, "ms");
  result.Add("mapping.conform_us", MedianSpan(log, "mapping.conform"), "us");
  result.Add("mapping.changed_per_attempted",
             changed / static_cast<double>(batch_docs.size()), "ratio");
  result.Add("repository.add_us", MedianSpan(log, "repository.add"), "us");
  result.Add("repository.parse_us", MedianSpan(log, "repository.parse"), "us");
  for (size_t p = 0; p < kPlanCount; ++p) {
    result.Add(std::string("repository.query_us.") +
                   PlanName(static_cast<Plan>(p)),
               MedianSpan(log, kQuerySpan[p]), "us");
  }
  const double query_count = static_cast<double>(queries.size());
  result.Add("repository.matches_per_query", matches / query_count, "count");
  result.Add("repository.predicate_bytes_per_query",
             predicate_bytes / query_count, "bytes");
  result.Add("repository.returned_per_materialized",
             matches > 0 ? returned / matches : 0.0, "ratio");
  result.Add("storage.wal_encode_us", MedianSpan(log, "storage.wal_encode"),
             "us");
  result.Add("storage.wal_append_us", MedianSpan(log, "storage.wal_append"),
             "us");
  result.Add("storage.wal_bytes_per_page", wal_bytes / n, "bytes");
  result.Add("storage.checkpoint_ms",
             MedianSpan(log, "storage.checkpoint") / 1e3, "ms");
  result.Add("storage.open_ms", MedianSpan(log, "storage.open") / 1e3, "ms");
  result.Add("serve.ping_rtt_us", wire.ping_rtt_us, "us");
  const double execute_hit = MedianSpan(log, "serve.execute.query_hit");
  result.Add("serve.execute_us.query_hit", execute_hit, "us");
  result.Add("serve.execute_us.query_miss",
             MedianSpan(log, "serve.execute.query_miss"), "us");
  result.Add("serve.execute_us.ingest", MedianSpan(log, "serve.execute.ingest"),
             "us");
  result.Add("serve.encode_us", MedianSpan(log, "serve.encode"), "us");
  result.Add("serve.decode_us", MedianSpan(log, "serve.decode"), "us");
  result.Add("serve.cache_hit_ratio", wire.cache_hit_ratio, "ratio");
  result.Add("serve.wakeups_per_request", wire.wakeups_per_request, "ratio");
  result.Add("core.pipeline_us_per_page",
             MedianSpan(log, "core.pipeline") /
                 static_cast<double>(batch_docs.size()),
             "us");
  // The two gaps between totals reached by separate paths.
  result.Add("gap.wire_p50_minus_ping_and_execute_us",
             wire.p50_us - (wire.ping_rtt_us + execute_hit), "us");
  result.Add("gap.convert_minus_four_rules_us",
             MedianSpan(log, "restructure.convert") - rules, "us");
  result.Note("wire_p50_us", wire.p50_us, "us");

  const std::string trace_dir = options.bin_dir + "/traces";
  ::mkdir(trace_dir.c_str(), 0755);
  const std::string trace_path = trace_dir + "/" + workload + "-seed" +
                                 std::to_string(options.seed) + ".json";
  if (log.WriteChromeTrace(trace_path)) {
    std::printf("trace: %zu spans written to %s\n", log.size(),
                trace_path.c_str());
  }
  return result;
}

}  // namespace e2e
