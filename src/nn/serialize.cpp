#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"

namespace repro::nn {
namespace {

constexpr std::uint32_t kMagic = 0x5052574E;  // "NWRP"

void write_u32(std::ostream& out, std::uint32_t v) {
  repro::write_pod(out, v);
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  if (!repro::read_pod(in, v)) {
    throw std::runtime_error("checkpoint: truncated file");
  }
  return v;
}

}  // namespace

void save_parameters(const std::string& path,
                     const std::vector<Parameter*>& params) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_parameters: cannot open " + path);
  write_u32(out, kMagic);
  write_u32(out, static_cast<std::uint32_t>(params.size()));
  for (const Parameter* p : params) {
    write_u32(out, static_cast<std::uint32_t>(p->name.size()));
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u32(out, static_cast<std::uint32_t>(p->value.shape().size()));
    for (std::size_t d : p->value.shape()) {
      write_u32(out, static_cast<std::uint32_t>(d));
    }
    repro::write_bytes(out, p->value.data(), p->value.size());
  }
  if (!out) throw std::runtime_error("save_parameters: write failed");
}

void load_parameters(const std::string& path,
                     const std::vector<Parameter*>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_parameters: cannot open " + path);
  if (read_u32(in) != kMagic) {
    throw std::runtime_error("load_parameters: bad magic in " + path);
  }
  const std::uint32_t count = read_u32(in);
  if (count != params.size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch");
  }
  // Lengths come from an untrusted file: each is checked against the
  // expected parameter before anything is allocated from it.
  for (Parameter* p : params) {
    const std::uint32_t name_len = read_u32(in);
    if (name_len != p->name.size()) {
      throw std::runtime_error("load_parameters: expected parameter '" +
                               p->name + "', found a name of " +
                               std::to_string(name_len) + " bytes");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (name != p->name) {
      throw std::runtime_error("load_parameters: expected parameter '" +
                               p->name + "', found '" + name + "'");
    }
    const std::uint32_t rank = read_u32(in);
    if (rank != p->value.shape().size()) {
      throw std::runtime_error("load_parameters: rank mismatch for " + name);
    }
    std::vector<std::size_t> shape(rank);
    for (auto& d : shape) d = read_u32(in);
    if (shape != p->value.shape()) {
      throw std::runtime_error("load_parameters: shape mismatch for " + name);
    }
    if (!repro::read_bytes(in, p->value.data(), p->value.size())) {
      throw std::runtime_error("load_parameters: truncated data");
    }
  }
}

}  // namespace repro::nn
