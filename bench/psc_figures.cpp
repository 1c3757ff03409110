// psc_figures: regenerate one table, figure or ablation of the paper.
//
//   psc_figures <name> [--metrics-out=FILE] [--trace-out=FILE]
//
// <name> is one of the figures registered below (e.g. fig3_stalls,
// ablation_abr); it is also the `bench` field of the BENCH line. An
// unknown name prints the registered names to stderr and exits 2.
//
// Every figure prints (1) the paper's reported shape, (2) the simulated
// series, and (3) the ASCII rendering of the figure, and finishes with a
// machine-readable `BENCH {...}` JSON line (see docs/PERFORMANCE.md) so
// the perf trajectory can be tracked across commits. Scale knobs come
// from the environment so CI can run small and a full reproduction can
// run at paper scale:
//   PSC_SESSIONS   viewing sessions in the unlimited-bandwidth campaign
//                  (paper: 3382; default here: 240)
//   PSC_BW_SESSIONS  sessions per bandwidth limit (paper: 18-91; 60)
//   PSC_CRAWL_HOURS  targeted crawl length in sim hours (paper: 4-10; 2;
//                    fractional values allowed)
//   PSC_THREADS      worker threads for sharded campaigns (default:
//                    hardware concurrency). Results are byte-identical
//                    for a given seed regardless of this knob.
//   PSC_SHARD_SESSIONS  sessions per shard (default 12). Part of the
//                    deterministic shard plan: changing it changes which
//                    per-shard worlds are simulated.
//   PSC_MODE         campaign mode for sharded campaigns: "independent"
//                    (default; per-shard worlds) or "shared" (one
//                    recorded world + epoch-reconciled server load, see
//                    docs/PERFORMANCE.md). Either way results are
//                    byte-identical across PSC_THREADS.
//   PSC_METRICS      truthy: collect campaign metrics; a value other than
//                    "1" doubles as the snapshot output path. See
//                    docs/OBSERVABILITY.md and bench::Reporter.
//   PSC_TRACE_OUT    write a Chrome trace_event JSON to this path.
//   PSC_FAULT_SEED   non-zero: enable fault injection with a plan
//                    generated from this seed (docs/ROBUSTNESS.md);
//                    fault_qoe's sweep seed (default 7).
//   PSC_FAULT_PLAN   path to a fault-plan text file; enables fault
//                    injection and overrides the generated plan.
//   PSC_FAULT_INTENSITY  fault_qoe: episode-count multiplier of the
//                    generated plans (default 1.0).
//   PSC_AGG_PEAK     hybrid-fidelity figures: flash-crowd spike scale in
//                    viewers (default 150000; docs/EXPERIMENTS.md).
//   PSC_AGG_SAMPLE   cohort sample-rate denominator (default 100: one
//                    full-protocol session per 100 aggregate viewers).
//   PSC_FLASH_SEED   flash-crowd schedule seed (default 11), used
//                    verbatim — never mixed with shard seeds.
// --metrics-out=FILE / --trace-out=FILE enable collection and set the
// output path in one step.
#include <cstdio>
#include <cstring>

#include "figures/figure.h"

using namespace psc;

namespace {

struct Figure {
  const char* name;
  const char* id;
  const char* title;
  const char* paper_shape;
  // Prints the figure's series and charts and returns its BENCH fields;
  // campaign figures fold their results into the Reporter.
  bench::FigureResult (*run)(bench::Reporter&);
};

const Figure kFigures[] = {
    {"table1_api", "Table 1", "Relevant Periscope API commands",
     "mapGeoBroadcastFeed(rect)->broadcast list; getBroadcasts(ids)->"
     "descriptions incl. viewers; playbackMeta(stats)->nothing",
     figures::table1_api},
    {"fig1_crawl", "Figure 1", "Deep-crawl coverage vs. ranked areas",
     "crawls at different hours find 1K-4K broadcasts; curves concave; "
     "top 50% of areas always contain >80% of all broadcasts; a deep "
     "crawl takes a bit over 10 minutes",
     figures::fig1_crawl},
    {"fig2_usage", "Figure 2",
     "Broadcast durations and viewers (targeted crawls)",
     "(a) most broadcasts 1-10 min, ~half <4 min, tail past a day; >90% "
     "of broadcasts <20 avg viewers, some reach thousands; >10% have no "
     "viewers and are much shorter (avg ~2 vs ~13 min). (b) viewers "
     "dip in the early hours, peak in the morning, rise toward midnight",
     figures::fig2_usage},
    {"fig3_stalls", "Figure 3",
     "Stall ratio, RTMP, with and without bandwidth limits",
     "(a) most streams do not stall; a notable mode at ratio 0.05-0.09 "
     "(one 3-5 s stall in 60 s). (b) little stalling above 2 Mbps; "
     "clear degradation at and below 2 Mbps. HLS stalls rarer than RTMP",
     figures::fig3_stalls},
    {"fig4_latency", "Figure 4",
     "RTMP join time and playback latency vs. bandwidth",
     "both increase when bandwidth is limited; join time grows "
     "dramatically at 2 Mbps and below; unlimited playback latency is "
     "'roughly a few seconds' (mostly buffering, since delivery is "
     "<0.3 s)",
     figures::fig4_latency},
    {"fig5_delivery", "Figure 5", "Video delivery latency: RTMP vs HLS",
     "RTMP delivery <300 ms for 75% of broadcasts; HLS >5 s on average "
     "(segmentation + packaging + pull); no bandwidth limiting",
     figures::fig5_delivery},
    {"fig6_video", "Figure 6", "Captured video characteristics",
     "(a) bitrates typically 200-400 kbps, RTMP max higher (I-only "
     "streams); (b) segment duration mode at 3.6 s; resolution always "
     "320x568 (or rotated); fps variable up to 30; AAC 44.1 kHz at ~32 "
     "or ~64 kbps",
     figures::fig6_video},
    {"fig7_qp", "Figure 7", "QP vs bitrate and their variability",
     "(a) same QP spans a wide bitrate range across streams (static "
     "talking heads vs soccer matches); (b) most HLS broadcasts have low "
     "stddev in both bitrate and QP; outliers vary in one axis but not "
     "the other",
     figures::fig7_qp},
    {"fig8_power", "Figure 8",
     "Average power consumption (Monsoon-style model)",
     "idle ~1000 mW; app-no-video 1670/2160 mW (WiFi/LTE); live == "
     "replay; RTMP ~ HLS; chat jumps to 4170/4540 mW, slightly more than "
     "broadcasting, draining the battery in just over 2 h",
     figures::fig8_power},
    {"stats_text", "§5 text", "Statistical findings",
     "t-tests: stall/latency p=0.04-0.7 (not rejected), frame rate "
     "differs; HLS boundary ~100 viewers; 87 RTMP servers / 2 HLS IPs; "
     "IBP dominant, ~20% IP-only; no strong metric correlations",
     figures::stats_text},
    {"fault_qoe", "Fault QoE",
     "Stall ratio under injected faults + resilience ledger",
     "clean runs mostly stall-free (Fig. 3a); injected radio/server "
     "faults shift the CDF right; every session still terminates as "
     "Completed or GaveUp",
     figures::fault_qoe},
    {"flashcrowd", "Flash crowd", "Hybrid-fidelity million-viewer campaign",
     "flash crowds spike n_watching past the HLS threshold; cohort QoE "
     "CDFs are invariant to the cohort sample rate (weighted KS ~ 0) "
     "because the fluid tier is a closed process",
     figures::flashcrowd},
    {"ablation_abr", "Ablation",
     "Adaptive vs fixed-quality HLS under bandwidth limits",
     "§5.1 hypothesis: HLS's fewer stalls 'may be achieved through "
     "lowered bitrate' — rate adaptation trades rendition for smoothness",
     figures::ablation_abr},
    {"ablation_buffer", "Ablation", "RTMP player buffer depth",
     "deeper buffer -> fewer stalls, more playback latency; the paper's "
     "hypothesis that RTMP runs a smaller buffer than HLS",
     figures::ablation_buffer},
    {"ablation_gop", "Ablation", "GOP pattern (IBP vs IP vs I-only)",
     "IBP most efficient; IP slightly larger; I-only far larger at the "
     "same QP (the paper's RTMP bitrate outliers); B frames add one "
     "frame of delay",
     figures::ablation_gop},
    {"ablation_segment", "Ablation", "HLS segment duration",
     "delivery latency ~ segment duration + packaging + fetch; 3.6 s is "
     "the paper's observed operating point",
     figures::ablation_segment},
    {"ablation_transport", "Ablation",
     "Transport model: fluid + shaped queue vs TCP Reno",
     "the shaped-queue approximation should place the stall/join knee "
     "at the same bandwidths as real TCP dynamics",
     figures::ablation_transport},
};

}  // namespace

int main(int argc, char** argv) {
  const Figure* figure = nullptr;
  for (const Figure& f : kFigures) {
    if (argc > 1 && std::strcmp(argv[1], f.name) == 0) figure = &f;
  }
  if (figure == nullptr) {
    std::fprintf(stderr,
                 "usage: psc_figures <name> [--metrics-out=FILE] "
                 "[--trace-out=FILE]\nregistered figures:\n");
    for (const Figure& f : kFigures) std::fprintf(stderr, "  %s\n", f.name);
    return 2;
  }

  // Before any Study is built: the Reporter reads the flags after the
  // name and sets the obs toggles that Studies sample at construction.
  bench::Reporter reporter(figure->name, argc - 1, argv + 1);
  bench::print_header(figure->id, figure->title, figure->paper_shape);
  const bench::WallTimer timer;
  const bench::FigureResult result = figure->run(reporter);
  reporter.finish(timer.elapsed_s(), result.values, result.labels);
  return 0;
}
