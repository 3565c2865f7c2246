#include "core/result_sink.h"

#include <iomanip>
#include <stdexcept>

#include "core/jsonl.h"
#include "core/result_store.h"
#include "core/selector.h"

namespace drivefi::core {

namespace {

// A sink that silently drops records turns a full disk into a truncated
// campaign nobody notices until the analysis stage; surface the stream
// error at the write that hit it instead.
void check(const std::ostream& out, const char* sink) {
  if (!out)
    throw std::runtime_error(std::string(sink) +
                             ": write failed (stream in error state -- disk "
                             "full or closed stream?)");
}

}  // namespace

void JsonlSink::begin(const CampaignMeta& meta) {
  out_ << "{\"type\":\"campaign\",\"model\":\"" << json_escape(meta.model_name)
       << "\",\"planned_runs\":" << meta.planned_runs << "}\n";
  check(out_, "JsonlSink");
}

void JsonlSink::selection(const SelectionResult& result) {
  out_ << "{\"type\":\"selection\",\"candidates_total\":"
       << result.candidates_total
       << ",\"candidates_evaluated\":" << result.candidates_evaluated
       << ",\"skipped_unmapped\":" << result.skipped_unmapped
       << ",\"skipped_no_window\":" << result.skipped_no_window
       << ",\"skipped_no_lead\":" << result.skipped_no_lead
       << ",\"skipped_golden_unsafe\":" << result.skipped_golden_unsafe
       << ",\"critical\":" << result.critical.size()
       << ",\"inference_calls\":" << result.inference_calls
       << ",\"wall_seconds\":" << std::setprecision(17)
       << result.wall_seconds << "}\n";
  check(out_, "JsonlSink");
}

void JsonlSink::consume(const InjectionRecord& record) {
  // One shared serializer with the shard result store, so a sharded
  // campaign's merged JSONL is byte-identical to this stream.
  out_ << run_record_jsonl(record) << '\n';
  check(out_, "JsonlSink");
}

void JsonlSink::finish(const CampaignStats& stats) {
  out_ << "{\"type\":\"summary\",\"total\":" << stats.total()
       << ",\"masked\":" << stats.masked << ",\"sdc_benign\":" << stats.sdc_benign
       << ",\"hang\":" << stats.hang << ",\"hazard\":" << stats.hazard
       << ",\"hazard_scenes\":" << stats.hazard_scenes.size()
       << ",\"wall_seconds\":" << std::setprecision(17) << stats.wall_seconds
       << "}\n";
  out_.flush();
  check(out_, "JsonlSink");
}

}  // namespace drivefi::core
