#include "gateway/segment_store.h"

#include <utility>

namespace psc::gateway {

void SegmentStore::set_metrics(obs::Registry* reg) {
  if (reg == nullptr) {
    segments_total_ = nullptr;
    publishes_total_ = nullptr;
    first_segment_latency_ = nullptr;
    segment_duration_ = nullptr;
    return;
  }
  segments_total_ = &reg->counter("gateway_segments_total");
  publishes_total_ = &reg->counter("gateway_publishes_total");
  first_segment_latency_ = &reg->histogram("gateway_first_segment_latency_s");
  segment_duration_ = &reg->histogram("gateway_segment_duration_s");
}

void SegmentStore::on_publish_start(const std::string& stream, TimePoint now) {
  auto [it, inserted] = streams_.try_emplace(stream, cfg_.segment_target,
                                             cfg_.playlist_window);
  if (!inserted) {
    // Re-publish of the same key: drop any stale partial; the playlist
    // window and sequence numbering continue across the restart.
    it->second.segmenter.discard();
    it->second.segments.reopen();
  }
  it->second.segmenter.set_arena(arena_);
  it->second.awaiting_first_segment = now;
  if (publishes_total_ != nullptr) publishes_total_->add();
}

void SegmentStore::on_sample(const std::string& stream,
                             const media::MediaSample& sample, TimePoint now) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  if (auto seg = it->second.segmenter.push(sample)) {
    commit(it->second, std::move(*seg), now);
  }
}

void SegmentStore::on_publish_end(const std::string& stream, TimePoint now) {
  auto it = streams_.find(stream);
  if (it == streams_.end() || it->second.segments.ended()) return;
  if (auto seg = it->second.segmenter.flush()) {
    commit(it->second, std::move(*seg), now);
  }
  it->second.segments.end_stream();
}

void SegmentStore::flush_all(TimePoint now) {
  for (auto& [name, st] : streams_) on_publish_end(name, now);
}

void SegmentStore::commit(Stream& st, hls::Segment seg, TimePoint now) {
  if (st.awaiting_first_segment && first_segment_latency_ != nullptr) {
    first_segment_latency_->record(to_s(now - *st.awaiting_first_segment));
  }
  st.awaiting_first_segment.reset();
  if (segments_total_ != nullptr) segments_total_->add();
  if (segment_duration_ != nullptr) {
    segment_duration_->record(to_s(seg.duration));
  }
  ++segments_stored_;
  st.segments.append(std::move(seg), now);
  st.segments.retain_last(cfg_.playlist_window + cfg_.retain_extra);
}

const SegmentStore::Stream* SegmentStore::find_stream(
    std::string_view stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? nullptr : &it->second;
}

}  // namespace psc::gateway
