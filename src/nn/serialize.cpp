#include "nn/serialize.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "nn/layers.h"

namespace matgpt::nn {

namespace {
constexpr const char* kMagic = "matgpt-ckpt-v1";
}

void save_parameters(const Module& module, std::ostream& os) {
  const auto params = module.parameters();
  os << kMagic << " " << params.size() << "\n";
  for (const auto& p : params) {
    MGPT_CHECK(p.name.find_first_of(" \n") == std::string::npos,
               "parameter name must not contain whitespace: " << p.name);
    os << p.name;
    const auto& shape = p.var.value().shape();
    os << " " << shape.size();
    for (std::int64_t d : shape) os << " " << d;
    os << "\n";
  }
  for (const auto& p : params) {
    // Checkpoints are row-major whatever layout serving packed a weight in.
    const Tensor t = Linear::row_major(p.var);
    os.write(reinterpret_cast<const char*>(t.data()),
             static_cast<std::streamsize>(t.numel() *
                                          static_cast<std::int64_t>(
                                              sizeof(float))));
  }
  MGPT_CHECK(os.good(), "checkpoint write failed");
}

void load_parameters(Module& module, std::istream& is) {
  std::string magic;
  std::size_t count = 0;
  is >> magic >> count;
  MGPT_CHECK(magic == kMagic, "not a matgpt checkpoint");
  auto params = module.parameters();
  MGPT_CHECK(count == params.size(),
             "checkpoint holds " << count << " parameters, model expects "
                                 << params.size());
  // Header: validate names and shapes in order.
  for (auto& p : params) {
    std::string name;
    std::size_t rank = 0;
    is >> name >> rank;
    MGPT_CHECK(is.good(), "truncated checkpoint header");
    MGPT_CHECK(name == p.name, "parameter order mismatch: checkpoint has '"
                                   << name << "', model expects '" << p.name
                                   << "'");
    MGPT_CHECK(rank == p.var.value().shape().size(),
               "rank mismatch for " << name);
    for (std::size_t d = 0; d < rank; ++d) {
      std::int64_t dim = 0;
      is >> dim;
      MGPT_CHECK(dim == p.var.value().shape()[d],
                 "shape mismatch for " << name << " at dim " << d);
    }
  }
  is.ignore(1, '\n');  // the newline before the binary payload
  for (auto& p : params) {
    Tensor& t = p.var.node()->value;
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() *
                                         static_cast<std::int64_t>(
                                             sizeof(float))));
    MGPT_CHECK(is.gcount() ==
                   static_cast<std::streamsize>(t.numel() *
                                                static_cast<std::int64_t>(
                                                    sizeof(float))),
               "truncated checkpoint payload at " << p.name);
    // A weight serving packed stays packed: re-lay the row-major payload.
    Linear::repack(p.var);
  }
}

void save_parameters_file(const Module& module, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  MGPT_CHECK(os.is_open(), "cannot open " << path << " for writing");
  save_parameters(module, os);
}

void load_parameters_file(Module& module, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  MGPT_CHECK(is.is_open(), "cannot open " << path << " for reading");
  load_parameters(module, is);
}

}  // namespace matgpt::nn
