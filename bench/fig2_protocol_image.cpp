// Figure 2 — "Color processed synthetic data for Amazon: all packets
// (rows of pixels) are of the protocol type TCP."
//
// Trains the pipeline, generates one synthetic Amazon flow image, writes
// it as a PPM (red = 1, green = 0, grey = -1, columns in the paper's
// TCP|UDP|ICMP|IPv4 order), prints an ASCII region-occupancy rendering,
// and measures protocol compliance of many generated flows per class —
// the §3.2 Controllability result ("all generated packets ... adhere to
// the TCP protocol type", "Teams using UDP").
#include <filesystem>

#include "bench_common.hpp"

#include "diffusion/constraint.hpp"
#include "eval/report.hpp"
#include "nprint/codec.hpp"
#include "nprint/image.hpp"

using namespace repro;

namespace {

char region_char(const nprint::Matrix& matrix, std::size_t row,
                 nprint::Region region) {
  const std::size_t offset = nprint::region_offset(region);
  const std::size_t size = nprint::region_size(region);
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (matrix.at(row, offset + i) > -0.5f) ++occupied;
  }
  const double frac = static_cast<double>(occupied) / static_cast<double>(size);
  if (frac > 0.30) return '#';
  if (frac > 0.0) return '+';
  return '.';
}

}  // namespace

int main() {
  bench::Scale scale;
  bench::BenchReport report("fig2_protocol_image",
                            "Figure 2 (synthetic Amazon flow image, protocol "
                            "compliance)");

  report.stage("fit_diffusion");
  Rng rng(1);
  const flowgen::Dataset real =
      flowgen::build_table1_dataset(scale.flows_per_class, rng);
  diffusion::TraceDiffusion pipeline(bench::pipeline_config(scale),
                                     bench::class_names());
  Rng cap_rng(2);
  std::printf("fitting diffusion pipeline...\n");
  pipeline.fit(real.sample_per_class(scale.train_per_class, cap_rng));

  // --- The Figure 2 artifact: one Amazon flow image. ---
  report.stage("generate_image");
  // The first flow of the Amazon set the compliance sweep below draws.
  const int amazon = static_cast<int>(flowgen::App::kAmazon);
  const std::uint64_t amazon_seed = diffusion::fork_flow_seed(
      bench::kSynSeed, static_cast<std::size_t>(amazon));
  const net::Flow amazon_flow =
      pipeline.generate_seeded(amazon, bench::generate_options(scale),
                               amazon_seed)
          .front();
  const nprint::Matrix matrix =
      nprint::encode_flow(amazon_flow, scale.packets, /*pad_to_max=*/true);
  const diffusion::ProtocolTemplate& used = pipeline.class_template(amazon);
  // Artifacts never land in the working directory: honor
  // REPRO_BENCH_DIR like every report, else collect under reports/.
  std::string ppm_path = telemetry::report_path("fig2_amazon_synthetic.ppm");
  if (ppm_path == "fig2_amazon_synthetic.ppm") {
    std::filesystem::create_directories("reports");
    ppm_path = "reports/fig2_amazon_synthetic.ppm";
  }
  nprint::write_ppm(ppm_path, nprint::render(matrix));
  std::printf("wrote %s (%zux%zu, red=1 green=0 grey=-1)\n", ppm_path.c_str(),
              matrix.cols(), matrix.rows());

  std::printf("\nregion occupancy per packet row "
              "('#' dense, '+' sparse, '.' vacant):\n");
  std::printf("row   TCP(480) UDP(64) ICMP(64) IPv4(480)\n");
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    if (matrix.row_vacant(r)) continue;
    std::printf("%3zu      %c        %c       %c        %c\n", r,
                region_char(matrix, r, nprint::Region::kTcp),
                region_char(matrix, r, nprint::Region::kUdp),
                region_char(matrix, r, nprint::Region::kIcmp),
                region_char(matrix, r, nprint::Region::kIpv4));
  }
  std::printf("amazon template compliance of this image: %.3f\n",
              diffusion::template_compliance(matrix, used));

  // --- Compliance sweep across all classes (Teams=UDP etc.). ---
  report.stage("compliance_sweep");
  std::printf("\nper-class protocol compliance over %zu generated flows:\n",
              scale.syn_per_class);
  std::vector<std::vector<std::string>> rows;
  double worst = 1.0;
  for (std::size_t cls = 0; cls < flowgen::kNumApps; ++cls) {
    diffusion::GenerateOptions opts = bench::generate_options(scale);
    opts.count = scale.syn_per_class;
    const auto flows = pipeline.generate_seeded(
        static_cast<int>(cls), opts,
        diffusion::fork_flow_seed(bench::kSynSeed, cls));
    const auto& tmpl = pipeline.class_template(static_cast<int>(cls));
    std::size_t compliant_rows = 0, total_rows = 0;
    for (const auto& flow : flows) {
      for (std::size_t i = 0; i < flow.packets.size(); ++i) {
        ++total_rows;
        if (i < tmpl.per_packet.size() &&
            flow.packets[i].ip.protocol == tmpl.per_packet[i]) {
          ++compliant_rows;
        }
      }
    }
    const double compliance =
        total_rows ? static_cast<double>(compliant_rows) /
                         static_cast<double>(total_rows)
                   : 0.0;
    worst = std::min(worst, compliance);
    rows.push_back({flowgen::app_name(static_cast<flowgen::App>(cls)),
                    net::proto_name(tmpl.per_packet.empty()
                                        ? net::IpProto::kTcp
                                        : tmpl.per_packet[0]),
                    eval::fmt(compliance, 3)});
  }
  std::printf("%s\n", eval::format_table({"class", "template proto[0]",
                                          "compliance"},
                                         rows)
                          .c_str());
  report.note("worst_class_compliance", worst);
  std::printf("shape check: full compliance across classes ... %s\n",
              worst >= 0.999 ? "yes" : "NO");
  return worst >= 0.999 ? 0 : 1;
}
