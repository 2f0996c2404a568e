#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "concepts/resume_domain.h"
#include "restructure/converter.h"
#include "server_process.h"
#include "wire.h"
#include "xml/writer.h"

namespace e2e {

using webre::serve::MsgType;
using webre::serve::Request;
using webre::serve::Response;

Domain::Domain()
    : concepts(webre::ResumeConcepts()),
      constraints(webre::ResumeConstraints()),
      recognizer(&concepts) {}

webre::PipelineOptions MapPipelineOptions() {
  webre::PipelineOptions options;
  options.convert.root_name = "resume";
  options.mining.sup_threshold = 0.45;
  options.mining.ratio_threshold = 0.4;
  options.dtd.mark_optional = true;
  options.map_documents = true;
  options.parallel.num_threads = 0;
  options.keep_going = true;
  return options;
}

std::string CompareWithReference(const std::string& query,
                                 const Response& got,
                                 const std::vector<RefDoc>& docs) {
  if (!got.ok()) return query + ": error reply: " + got.message;
  std::vector<RefStep> steps;
  if (!ParseRefQuery(query, steps)) return query + ": reference cannot parse";
  uint64_t total = 0;
  std::vector<webre::serve::WireMatch> first;
  for (size_t id = 0; id < docs.size(); ++id) {
    for (RefMatch& match : RefEvaluate(steps, docs[id])) {
      ++total;
      if (first.size() < kReturned) {
        first.push_back(webre::serve::WireMatch{id, match.pos,
                                                std::move(match.name),
                                                std::move(match.val)});
      }
    }
  }
  if (got.total_matches != total) {
    return query + ": total_matches " + std::to_string(got.total_matches) +
           ", reference " + std::to_string(total);
  }
  if (got.matches.size() != first.size()) {
    return query + ": " + std::to_string(got.matches.size()) +
           " matches returned, reference " + std::to_string(first.size());
  }
  for (size_t i = 0; i < first.size(); ++i) {
    const webre::serve::WireMatch& a = got.matches[i];
    const webre::serve::WireMatch& b = first[i];
    if (a.doc != b.doc || a.pos != b.pos || a.name != b.name ||
        a.val != b.val) {
      return query + ": match " + std::to_string(i) + " is (" +
             std::to_string(a.doc) + "," + std::to_string(a.pos) + "," +
             a.name + "), reference (" + std::to_string(b.doc) + "," +
             std::to_string(b.pos) + "," + b.name + ")";
    }
  }
  return "";
}

std::vector<RefDoc> ReferenceCorpus(const std::vector<Page>& pages,
                                    const std::vector<size_t>& page_of_id) {
  Domain domain;
  webre::ConvertOptions convert;
  convert.root_name = "resume";
  webre::DocumentConverter converter(&domain.concepts, &domain.recognizer,
                                     &domain.constraints, convert);
  std::vector<RefDoc> docs;
  docs.reserve(page_of_id.size());
  for (size_t page : page_of_id) {
    auto tree = converter.TryConvert(pages[page].html);
    docs.push_back(tree.ok() ? LowerDocument(*tree.value()) : RefDoc{});
  }
  return docs;
}

std::string ServerThreadsFlag(const RunOptions& options) {
  return "--threads=" + std::to_string(options.connections);
}

void AddTails(RunResult& result, const std::vector<Sample>& samples) {
  std::vector<double> rtt_us;
  rtt_us.reserve(samples.size());
  for (const Sample& sample : samples) rtt_us.push_back(sample.rtt_us);
  result.Note("p99_us", Percentile(rtt_us, 0.99), "us");
  result.Note("p999_us", Percentile(rtt_us, 0.999), "us");
  result.Note("latency_samples", static_cast<double>(rtt_us.size()), "count");
}

WindowFigures Slices(const std::vector<Sample>& samples, double begin,
                     double end, size_t slices) {
  WindowFigures out;
  const double width = (end - begin) / static_cast<double>(slices);
  if (width <= 0.0 || slices == 0) return out;
  std::vector<std::vector<double>> rtt_us(slices);
  for (const Sample& sample : samples) {
    const size_t slice = static_cast<size_t>((sample.done - begin) / width);
    rtt_us[std::min(slice, slices - 1)].push_back(sample.rtt_us);
  }
  std::vector<double> rates;
  std::vector<double> medians;
  for (const std::vector<double>& slice : rtt_us) {
    rates.push_back(static_cast<double>(slice.size()) / width);
    if (!slice.empty()) medians.push_back(Median(slice));
  }
  out.ops_per_s = Median(rates);
  out.p50_us = Median(medians);
  return out;
}

namespace {

std::string Webre(const RunOptions& options) {
  return options.bin_dir + "/webre";
}

// One slice per second of the window (at least one).
size_t SliceCount(const RunOptions& options) {
  return std::max<size_t>(1, static_cast<size_t>(options.seconds));
}

bool Call(uint16_t port, MsgType type, const std::string& body,
          Response* response, std::string* error) {
  Request request;
  request.type = type;
  request.id = 1;
  request.body = body;
  return CallOnce(port, request, response, error);
}

// Ingests `pages` over `loop` (closed loop), recording which page each
// acknowledged id holds. Error replies count as failed operations.
bool Preload(ClosedLoop& loop, const std::vector<Page>& pages,
             std::vector<size_t>& page_of_id, uint64_t& html_bytes,
             RunResult& result, std::string* error) {
  size_t next_page = 0;
  std::vector<size_t> in_flight(loop.size());
  std::vector<std::pair<uint64_t, size_t>> acks;
  auto next = [&](size_t conn, Request& request) {
    if (next_page == pages.size()) return false;
    request.type = MsgType::kIngest;
    request.body = pages[next_page].html;
    in_flight[conn] = next_page++;
    return true;
  };
  auto done = [&](size_t conn, const Request&, Response& response, double) {
    ++result.attempted;
    if (!response.ok()) {
      ++result.failed;
      return;
    }
    acks.emplace_back(response.doc_id, in_flight[conn]);
    html_bytes += pages[in_flight[conn]].html.size();
  };
  if (!loop.Run(1e300, next, done, error)) return false;
  std::sort(acks.begin(), acks.end());
  page_of_id.clear();
  for (size_t i = 0; i < acks.size(); ++i) {
    if (acks[i].first != i) {
      *error = "acknowledged ids are not dense";
      return false;
    }
    page_of_id.push_back(acks[i].second);
  }
  return true;
}

// Each sampled page's unique fact (its phone number) must be found in
// the document the page was acknowledged as, and nowhere else.
void CheckFacts(uint16_t port,
                const std::vector<std::pair<uint64_t, std::string>>& samples,
                const std::string& when, RunResult& result) {
  for (const auto& [id, fact] : samples) {
    Response response;
    std::string error;
    const std::string query = "//*[val~\"" + fact + "\"]";
    if (!Call(port, MsgType::kQuery, query, &response, &error) ||
        !response.ok()) {
      result.Check(false, when + ": fact query " + query + " failed: " +
                              error + response.message);
      continue;
    }
    bool in_doc = !response.matches.empty();
    for (const webre::serve::WireMatch& match : response.matches) {
      in_doc = in_doc && match.doc == id;
    }
    result.Check(in_doc && response.total_matches == response.matches.size(),
                 when + ": fact " + fact + " not found only in document " +
                     std::to_string(id));
  }
}

std::unique_ptr<ServerProcess> StartServer(const RunOptions& options,
                                           const std::string& data_dir,
                                           RunResult& result) {
  std::string error;
  auto server = ServerProcess::Start(Webre(options),
                                     {"--data-dir=" + data_dir,
                                      "--wal-sync=none",
                                      ServerThreadsFlag(options)},
                                     &error);
  result.Check(server != nullptr, "server start: " + error);
  return server;
}

RunResult RunQuery(const RunOptions& options, bool distinct) {
  RunResult result;
  std::vector<Page> pages;
  pages.reserve(kQueryCorpusPages);
  for (size_t i = 0; i < kQueryCorpusPages; ++i) {
    pages.push_back(MakePage(options.seed, i));
  }
  const std::string data_dir = options.work_dir + "/data";
  auto server = StartServer(options, data_dir, result);
  if (server == nullptr) return result;
  std::string error;
  auto loop = ClosedLoop::Connect(server->port(), options.connections, &error);
  std::vector<size_t> page_of_id;
  uint64_t html_bytes = 0;
  const uint64_t preload_ops = result.attempted;
  if (loop == nullptr ||
      !Preload(*loop, pages, page_of_id, html_bytes, result, &error)) {
    result.Check(false, "preload: " + error);
    return result;
  }
  const uint64_t preloaded = result.attempted - preload_ops;
  Response reply;
  ++result.attempted;
  if (!Call(server->port(), MsgType::kCheckpoint, "", &reply, &error) ||
      !reply.ok()) {
    ++result.failed;
  }
  const double stored = static_cast<double>(DirectoryBytes(data_dir));

  const std::vector<std::string>& repeat = RepeatQueries();
  DistinctQueries generator(&pages, options.seed);
  // query_repeat: one untimed round fills the cache, so every timed
  // request is a hit.
  size_t sent = 0;
  if (!distinct) {
    auto next = [&](size_t, Request& request) {
      if (sent == repeat.size()) return false;
      request.type = MsgType::kQuery;
      request.body = repeat[sent++];
      return true;
    };
    auto done = [&](size_t, const Request&, Response& response, double) {
      ++result.attempted;
      if (!response.ok()) ++result.failed;
    };
    if (!loop->Run(1e300, next, done, &error)) {
      result.Check(false, "warm-up round: " + error);
      return result;
    }
  }

  // The timed window.
  constexpr size_t kDistinctSample = 64;
  std::vector<std::pair<std::string, Response>> sampled;
  std::vector<int64_t> repeat_total(repeat.size(), -1);
  bool repeat_stable = true;
  std::vector<Sample> samples;
  std::vector<size_t> in_flight(loop->size());
  sent = 0;
  auto next = [&](size_t conn, Request& request) {
    request.type = MsgType::kQuery;
    in_flight[conn] = sent++;
    request.body = distinct ? generator.Next()
                            : repeat[in_flight[conn] % repeat.size()];
    return true;
  };
  auto done = [&](size_t conn, const Request& request, Response& response,
                  double rtt) {
    ++result.attempted;
    if (!response.ok()) {
      ++result.failed;
      return;
    }
    samples.push_back(Sample{Now(), rtt * 1e6});
    const size_t k = in_flight[conn];
    if (distinct) {
      if (k < kDistinctSample) sampled.emplace_back(request.body, response);
      return;
    }
    int64_t& total = repeat_total[k % repeat.size()];
    if (total < 0) {
      sampled.emplace_back(request.body, response);
      total = static_cast<int64_t>(response.total_matches);
    } else if (total != static_cast<int64_t>(response.total_matches)) {
      repeat_stable = false;
    }
  };
  result.Add("setup_s", Now() - ProcessStart(), "s");
  const double begin = Now();
  const bool ran = loop->Run(begin + options.seconds, next, done, &error);
  const double end = Now();
  result.Check(ran, "timed window: " + error);
  const WindowFigures window = Slices(samples, begin, end, SliceCount(options));
  result.Add("ops_per_s", window.ops_per_s, "1/s");
  result.Add("p50_us", window.p50_us, "us");
  AddTails(result, samples);
  result.Add("peak_rss_mb", PeakRssMb(server->pid()), "MB");
  result.Add("stored_bytes_per_input_byte",
             html_bytes > 0 ? stored / static_cast<double>(html_bytes) : 0.0,
             "ratio");
  result.Note("corpus_docs", static_cast<double>(preloaded), "count");
  result.Note("queries", static_cast<double>(samples.size()), "count");

  Response stats;
  if (Call(server->port(), MsgType::kStats, "", &stats, &error)) {
    const double hits =
        static_cast<double>(StatsValue(stats.stats_json, "serve", "cache_hits"));
    const double misses = static_cast<double>(
        StatsValue(stats.stats_json, "serve", "cache_misses"));
    result.Note("cache_hit_ratio", hits / std::max(1.0, hits + misses),
                "ratio");
  }
  loop.reset();
  result.Check(server->Stop(), "server did not exit cleanly on stdin EOF");

  // Output checks, outside the timed window.
  result.Check(repeat_stable, "a repeated query changed its total_matches");
  result.Check(distinct || sampled.size() == repeat.size(),
               "not every repeated query was answered");
  const std::vector<RefDoc> docs = ReferenceCorpus(pages, page_of_id);
  for (const auto& [query, response] : sampled) {
    const std::string diff = CompareWithReference(query, response, docs);
    result.Check(diff.empty(), diff);
  }
  return result;
}

}  // namespace

RunResult RunQueryRepeat(const RunOptions& options) {
  return RunQuery(options, /*distinct=*/false);
}

RunResult RunQueryDistinct(const RunOptions& options) {
  return RunQuery(options, /*distinct=*/true);
}

RunResult RunIngest(const RunOptions& options) {
  RunResult result;
  const std::string data_dir = options.work_dir + "/data";
  std::vector<double> rates, p50s;
  std::vector<Sample> all_samples;
  double window_end = 0.0;
  size_t documents = 0;
  // Rounds of kIngestPages pages, each into a fresh server on an empty
  // data directory, until --seconds have passed; a started round always
  // completes. Each round's rate and median round trip is one sample
  // and the run reports their medians: a round that meets a stalled
  // host counts once. Memory and stored bytes come from the last round.
  for (size_t round = 0;; ++round) {
    std::vector<Page> pages;
    pages.reserve(kIngestPages);
    for (size_t i = 0; i < kIngestPages; ++i) {
      pages.push_back(MakePage(options.seed, round * kIngestPages + i,
                               /*with_values=*/false));
    }
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
    auto server = StartServer(options, data_dir, result);
    if (server == nullptr) return result;
    std::string error;
    auto loop =
        ClosedLoop::Connect(server->port(), options.connections, &error);
    if (loop == nullptr) {
      result.Check(false, "connect: " + error);
      return result;
    }

    // A page's HTML moves into its request and is not kept.
    std::vector<size_t> in_flight(loop->size());
    std::vector<std::pair<uint64_t, size_t>> acks;
    std::vector<Sample> samples;
    uint64_t html_bytes = 0;
    size_t next_page = 0;
    auto next = [&](size_t conn, Request& request) {
      if (next_page == pages.size()) return false;
      request.type = MsgType::kIngest;
      request.body = std::move(pages[next_page].html);
      pages[next_page].html = std::string();
      in_flight[conn] = next_page++;
      return true;
    };
    auto done = [&](size_t conn, const Request& request, Response& response,
                    double rtt) {
      ++result.attempted;
      if (!response.ok()) {
        ++result.failed;
        return;
      }
      samples.push_back(Sample{Now(), rtt * 1e6});
      acks.emplace_back(response.doc_id, in_flight[conn]);
      html_bytes += request.body.size();
    };
    if (round == 0) {
      result.Add("setup_s", Now() - ProcessStart(), "s");
      window_end = Now() + options.seconds;
    }
    const double begin = Now();
    const bool ran = loop->Run(1e300, next, done, &error);
    const double end = Now();
    result.Check(ran, "ingest round: " + error);
    rates.push_back(static_cast<double>(samples.size()) / (end - begin));
    std::vector<double> rtt_us;
    for (const Sample& sample : samples) rtt_us.push_back(sample.rtt_us);
    p50s.push_back(Median(rtt_us));
    all_samples.insert(all_samples.end(), samples.begin(), samples.end());
    documents += acks.size();

    // Acknowledged ids are distinct and dense.
    std::sort(acks.begin(), acks.end());
    bool dense = true;
    for (size_t i = 0; i < acks.size(); ++i) {
      dense = dense && acks[i].first == i;
    }
    result.Check(dense, "acknowledged ids are not distinct and dense");
    if (Now() < window_end) {
      // Not the last round: the data directory is deleted unflushed, so
      // earlier rounds put no disk writes under later ones.
      loop.reset();
      result.Check(server->Stop(), "server did not exit cleanly on stdin EOF");
      continue;
    }

    // The last round ends with the checkpoint that makes its documents
    // durable: an operation of the workload, timed apart.
    const double rss_before_checkpoint = PeakRssMb(server->pid());
    Response reply;
    ++result.attempted;
    const double checkpoint_begin = Now();
    if (!Call(server->port(), MsgType::kCheckpoint, "", &reply, &error) ||
        !reply.ok()) {
      ++result.failed;
    }
    const double checkpoint_ms = (Now() - checkpoint_begin) * 1e3;
    result.Add("peak_rss_mb", PeakRssMb(server->pid()), "MB");
    result.Add("stored_bytes_per_input_byte",
               html_bytes > 0 ? static_cast<double>(DirectoryBytes(data_dir)) /
                                    static_cast<double>(html_bytes)
                              : 0.0,
               "ratio");
    result.Note("checkpoint_ms", checkpoint_ms, "ms");
    result.Note("peak_rss_before_checkpoint_mb", rss_before_checkpoint, "MB");

    // Last round: facts unique to one page of the round's corpus, for
    // 16 sampled pages, before and after a restart on the data dir.
    std::map<std::string, size_t> fact_count;
    for (const Page& page : pages) ++fact_count[page.phone];
    std::vector<std::pair<uint64_t, std::string>> facts;
    constexpr size_t kSamples = 16;
    for (size_t k = 0; k < acks.size() && facts.size() < kSamples;
         k += std::max<size_t>(1, acks.size() / kSamples)) {
      const std::string& fact = pages[acks[k].second].phone;
      if (fact_count[fact] == 1) facts.emplace_back(acks[k].first, fact);
    }
    result.Check(!facts.empty(), "no page with a unique fact was sampled");
    CheckFacts(server->port(), facts, "before restart", result);
    loop.reset();
    result.Check(server->Stop(), "server did not exit cleanly on stdin EOF");

    auto restarted = StartServer(options, data_dir, result);
    if (restarted == nullptr) return result;
    Response stats;
    const bool got_stats =
        Call(restarted->port(), MsgType::kStats, "", &stats, &error);
    const int64_t held =
        got_stats ? StatsValue(stats.stats_json, "repository", "documents")
                  : -1;
    result.Check(held == static_cast<int64_t>(acks.size()),
                 "after restart the repository holds " + std::to_string(held) +
                     " documents, " + std::to_string(acks.size()) +
                     " were acknowledged");
    CheckFacts(restarted->port(), facts, "after restart", result);
    result.Check(restarted->Stop(),
                 "restarted server did not exit cleanly on stdin EOF");
    break;
  }
  result.Add("ops_per_s", Median(rates), "1/s");
  result.Add("p50_us", Median(p50s), "us");
  AddTails(result, all_samples);
  result.Note("rounds", static_cast<double>(rates.size()), "count");
  result.Note("documents", static_cast<double>(documents), "count");
  return result;
}

RunResult RunBatchMap(const RunOptions& options) {
  RunResult result;
  std::vector<std::string> html;
  html.reserve(kBatchPages);
  uint64_t html_bytes = 0;
  for (size_t i = 0; i < kBatchPages; ++i) {
    html.push_back(MakePage(options.seed, i, false).html);
    html_bytes += html.back().size();
  }
  Domain domain;
  const webre::PipelineOptions pipeline_options = MapPipelineOptions();
  const webre::Pipeline pipeline(&domain.concepts, &domain.recognizer,
                                 &domain.constraints, pipeline_options);
  result.Add("setup_s", Now() - ProcessStart(), "s");

  // Each operation is one `webre map` batch: Pipeline::Run with mapping,
  // then the mapped documents written out as XML.
  std::vector<double> us_per_doc;
  // Held by pointer: a PipelineResult must be destroyed, never
  // move-assigned over, so its trees go before their arenas.
  std::unique_ptr<webre::PipelineResult> last;
  uint64_t xml_bytes = 0;
  const double deadline = Now() + options.seconds;
  do {
    last.reset();
    const double begin = Now();
    webre::PipelineResult batch = pipeline.Run(html);
    xml_bytes = 0;
    for (const auto& doc : batch.mapped_documents) {
      if (doc != nullptr) xml_bytes += webre::WriteXml(*doc).size();
    }
    us_per_doc.push_back((Now() - begin) * 1e6 / kBatchPages);
    result.attempted += kBatchPages;
    result.failed += batch.failed_documents;
    last = std::make_unique<webre::PipelineResult>(std::move(batch));
  } while (Now() < deadline);
  const double median_us = Median(us_per_doc);
  result.Add("ops_per_s", median_us > 0 ? 1e6 / median_us : 0.0, "1/s");
  result.Add("p50_us", median_us, "us");
  result.Add("peak_rss_mb", PeakRssMb(0), "MB");
  result.Add("stored_bytes_per_input_byte",
             static_cast<double>(xml_bytes) / static_cast<double>(html_bytes),
             "ratio");
  result.Note("batches", static_cast<double>(us_per_doc.size()), "count");
  result.Note("conforming_before", static_cast<double>(last->conforming_before),
              "count");

  // Every mapped document conforms to the returned DTD, checked by the
  // benchmark's own content-model matcher.
  size_t mapped = 0;
  std::string first_violation;
  size_t violations = 0;
  for (const auto& doc : last->mapped_documents) {
    if (doc == nullptr) continue;
    ++mapped;
    const std::string violation = CheckConforms(*doc, last->dtd);
    if (!violation.empty()) {
      if (violations++ == 0) first_violation = violation;
    }
  }
  result.Check(mapped == kBatchPages - last->failed_documents,
               "mapped documents missing");
  result.Check(violations == 0, std::to_string(violations) +
                                    " mapped documents do not conform, e.g. " +
                                    first_violation);
  // The majority schema matches its definition over the converted
  // documents.
  std::vector<const webre::Node*> docs;
  for (const auto& doc : last->documents) {
    if (doc != nullptr) docs.push_back(doc.get());
  }
  for (const std::string& violation : CheckMajoritySchema(
           docs, last->schema, pipeline_options.mining.sup_threshold,
           pipeline_options.mining.ratio_threshold, &domain.constraints)) {
    result.Check(false, violation);
  }
  result.Check(!last->schema.empty(), "empty majority schema");
  return result;
}

}  // namespace e2e
