// Ablation: GOP pattern vs bitrate efficiency and latency.
//
// §5.2 found most streams use IBP, ~20% IP-only, and a couple I-only
// ("poor efficiency coding schemes" — the RTMP bitrate outliers). This
// sweep quantifies each pattern's cost at a fixed quality target and the
// one-frame latency a B frame adds.
#include "figure.h"
#include "media/encoder.h"

using namespace psc;

namespace {

struct Encoded {
  double kbps = 0;
  double avg_qp = 0;
  double max_reorder_ms = 0;
};

/// Encode 1800 frames (60 s at 30 fps) of content without scene cuts or
/// luminance events.
Encoded encode(const media::VideoConfig& vcfg) {
  media::ContentModelConfig content;
  content.scene_cut_rate_hz = 0;
  content.luminance_event_rate_hz = 0;
  media::VideoEncoder enc(vcfg, content, 0.0, Rng(42));
  double bits = 0, qp_sum = 0, max_reorder_ms = 0;
  int frames = 0;
  for (int i = 0; i < 1800; ++i) {
    auto s = enc.next_frame();
    if (!s) continue;
    bits += static_cast<double>(s->data.size()) * 8;
    qp_sum += s->encoded_qp;
    max_reorder_ms = std::max(max_reorder_ms, to_ms(s->pts - s->dts));
    ++frames;
  }
  return {bits / 60.0 / 1e3, qp_sum / frames, max_reorder_ms};
}

}  // namespace

bench::FigureResult figures::ablation_gop(bench::Reporter&) {
  struct Case {
    const char* name;
    media::GopPattern gop;
  };
  const Case cases[] = {{"IBP", media::GopPattern::IBP},
                        {"IP", media::GopPattern::IP},
                        {"I-only", media::GopPattern::IOnly}};

  std::printf("\nfixed QP 28, identical content (complexity locked):\n");
  std::printf("%8s %12s %12s %14s\n", "pattern", "kbps", "avg QP",
              "max pts-dts ms");
  for (const Case& c : cases) {
    media::VideoConfig vcfg;
    vcfg.gop = c.gop;
    vcfg.qp_min = 28;
    vcfg.qp_max = 28;  // lock QP: compare pure pattern efficiency
    vcfg.qp_start = 28;
    const Encoded e = encode(vcfg);
    std::printf("%8s %12.0f %12.1f %14.0f\n", c.name, e.kbps, e.avg_qp,
                e.max_reorder_ms);
  }

  std::printf("\nrate-controlled at 300 kbps target (QP free to move):\n");
  std::printf("%8s %12s %12s\n", "pattern", "kbps", "avg QP");
  for (const Case& c : cases) {
    media::VideoConfig vcfg;
    vcfg.gop = c.gop;
    vcfg.target_bitrate = 300e3;
    const Encoded e = encode(vcfg);
    std::printf("%8s %12.0f %12.1f\n", c.name, e.kbps, e.avg_qp);
  }
  std::printf("\nreading: at locked QP the I-only stream costs several "
              "times the IBP bitrate; under rate control it instead pays "
              "in quality (QP driven up) and still overshoots — matching "
              "the paper's 'poor efficiency coding schemes' outliers. "
              "The pts-dts column shows the one-frame (33 ms) reordering "
              "delay that B frames introduce, the paper's speculated "
              "reason some old hardware encodes IP-only.\n");
  return {.values = {{"frames", 10800}}};
}
