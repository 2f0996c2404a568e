#include "inputs.h"

#include <cctype>

#include "corpus/resume_generator.h"

namespace e2e {

namespace {

std::string Lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

Page MakePage(uint64_t seed, size_t index, bool with_values) {
  webre::CorpusOptions options;
  options.seed = seed;
  webre::GeneratedResume resume = webre::GenerateResume(index, options);
  Page page;
  page.html = std::move(resume.html);
  const std::string& phone = resume.data.phone_line;
  const size_t colon = phone.find(": ");
  page.phone = colon == std::string::npos ? phone : phone.substr(colon + 2);
  if (!with_values) return page;
  const webre::ResumeData& data = resume.data;
  for (const webre::EducationEntry& entry : data.education) {
    page.values.push_back(entry.date);
    page.values.push_back(entry.institution);
    page.values.push_back(entry.degree);
    page.values.push_back(entry.major);
  }
  for (const webre::ExperienceEntry& entry : data.experience) {
    page.values.push_back(entry.date_range);
    page.values.push_back(entry.company);
    page.values.push_back(entry.title);
    page.values.push_back(entry.location);
  }
  page.values.insert(page.values.end(), data.skills.begin(),
                     data.skills.end());
  page.values.insert(page.values.end(), data.courses.begin(),
                     data.courses.end());
  return page;
}

const char* PlanName(Plan plan) {
  switch (plan) {
    case Plan::kSummary:
      return "summary";
    case Plan::kSweep:
      return "sweep";
    case Plan::kSeeded:
      return "seeded";
    case Plan::kScan:
      return "scan";
  }
  return "?";
}

const std::vector<std::string>& RepeatQueries() {
  // Summary-only paths (with and without a last-step predicate), two
  // full-cover predicate sweeps, two summary-seeded suffix walks (a
  // predicate mid-path after a simple prefix) and two sharded scans (a
  // predicate mid-path with no simple prefix).
  static const std::vector<std::string> kQueries = {
      "/resume/EDUCATION/DATE",
      "/resume/SKILLS/LANGUAGE",
      "//LANGUAGE[val~\"java\"]",
      "//LOCATION/*",
      "/resume/EXPERIENCE//DATE",
      "/resume/EXPERIENCE/JOBTITLE/COMPANY[val~\"systems\"]",
      "//*[val~\"univ\"]",
      "//*[val~\"engineer\"]",
      "/resume/EDUCATION/DATE[val~\"199\"]/INSTITUTION",
      "/resume/EXPERIENCE/JOBTITLE[val~\"manager\"]/COMPANY",
      "//DATE[val~\"june\"]/INSTITUTION",
      "//JOBTITLE[val~\"engineer\"]/DATE",
  };
  return kQueries;
}

DistinctQueries::DistinctQueries(const std::vector<Page>* pages,
                                 uint64_t seed)
    : pages_(pages), rng_(seed ^ 0x5DEECE66DULL) {}

std::string DistinctQueries::Needle() {
  for (;;) {
    const Page& page = (*pages_)[rng_.NextBelow(pages_->size())];
    if (page.values.empty()) continue;
    const std::string& value = page.values[rng_.NextBelow(page.values.size())];
    if (value.size() < 3) continue;
    const size_t max_len = value.size() < 12 ? value.size() : 12;
    const size_t len = 3 + rng_.NextBelow(max_len - 3 + 1);
    const size_t start = rng_.NextBelow(value.size() - len + 1);
    std::string needle = Lower(value.substr(start, len));
    // No quoting characters, and no space at either end: the query
    // text then reads the same to every parser of the grammar.
    bool usable = needle.front() != ' ' && needle.back() != ' ';
    for (char c : needle) {
      if (c == '"' || c == '\\' || c == ']' ||
          static_cast<unsigned char>(c) < 0x20) {
        usable = false;
      }
    }
    if (usable) return needle;
  }
}

std::string DistinctQueries::Next() {
  // One template per plan, in turn (see RepeatQueries for why each
  // shape lands on its plan).
  static const char* const kTemplates[kPlanCount][2] = {
      {"/resume/EXPERIENCE/JOBTITLE/COMPANY[val~\"", "\"]"},
      {"//*[val~\"", "\"]"},
      {"/resume/EXPERIENCE/*[val~\"", "\"]/*"},
      {"//*[val~\"", "\"]/*"},
  };
  const auto& shape = kTemplates[count_ % kPlanCount];
  for (;;) {
    std::string text = shape[0] + Needle() + shape[1];
    if (used_.insert(text).second) {
      ++count_;
      return text;
    }
  }
}

}  // namespace e2e
