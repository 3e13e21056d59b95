#include "serve/tp/tp_model.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/error.h"
#include "nn/layers.h"
#include "tensor/ops.h"

namespace matgpt::serve::tp {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layout_name(TpLayout layout) {
  switch (layout) {
    case TpLayout::kColumnGather:
      return "column_gather";
    case TpLayout::kRowAllreduce:
      return "row_allreduce";
  }
  return "?";
}

void TpConfig::validate() const {
  MGPT_CHECK(ranks >= 1, "tensor-parallel ranks must be >= 1, got " << ranks);
  MGPT_CHECK(layout == TpLayout::kColumnGather ||
                 layout == TpLayout::kRowAllreduce,
             "unknown tensor-parallel layout");
}

Tensor column_slice(const Tensor& w, std::int64_t begin, std::int64_t end) {
  MGPT_CHECK(w.ndim() == 2, "column_slice expects a 2-D tensor");
  MGPT_CHECK(0 <= begin && begin < end && end <= w.dim(1),
             "column_slice range [" << begin << ", " << end
                                    << ") out of bounds for width " << w.dim(1));
  const std::int64_t rows = w.dim(0);
  const std::int64_t full = w.dim(1);
  const std::int64_t width = end - begin;
  Tensor out({rows, width});
  const float* src = w.data();
  float* dst = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy_n(src + r * full + begin, width, dst + r * width);
  }
  return out;
}

Tensor row_slice(const Tensor& w, std::int64_t begin, std::int64_t end) {
  MGPT_CHECK(w.ndim() == 2, "row_slice expects a 2-D tensor");
  MGPT_CHECK(0 <= begin && begin < end && end <= w.dim(0),
             "row_slice range [" << begin << ", " << end
                                 << ") out of bounds for " << w.dim(0)
                                 << " rows");
  const std::int64_t width = w.dim(1);
  Tensor out({end - begin, width});
  std::copy_n(w.data() + begin * width, (end - begin) * width, out.data());
  return out;
}

Tensor slice_1d(const Tensor& b, std::int64_t begin, std::int64_t end) {
  MGPT_CHECK(b.ndim() == 1, "slice_1d expects a 1-D tensor");
  MGPT_CHECK(0 <= begin && begin < end && end <= b.dim(0),
             "slice_1d range [" << begin << ", " << end
                                << ") out of bounds for length " << b.dim(0));
  Tensor out({end - begin});
  std::copy_n(b.data() + begin, end - begin, out.data());
  return out;
}

TpModel::TpModel(const nn::GptModel& model, TpConfig config)
    : model_(model), config_(config) {
  config_.validate();
  const nn::GptConfig& cfg = model_.config();
  params_ = model_.parameters();
  auto find = [&](const std::string& name) -> Var {
    for (const nn::NamedParam& p : params_) {
      if (p.name == name) return p.var;
    }
    MGPT_CHECK(false, "tensor-parallel shard: model has no parameter '"
                          << name << "'");
    return Var();
  };
  tok_emb_ = find("tok_emb");
  final_gamma_ = find("final_norm.gamma");
  if (cfg.arch == nn::ArchFamily::kNeoX) {
    final_beta_ = find("final_norm.beta");
  }
  inner_total_ = cfg.arch == nn::ArchFamily::kNeoX
                     ? 4 * cfg.hidden
                     : nn::SwiGluMlp::inner_dim_for(cfg.hidden);

  const int n = config_.ranks;
  group_ = std::make_shared<detail::GroupState>(n);
  ranks_.resize(static_cast<std::size_t>(n));

  // Every rank builds its own shard (slicing is the expensive part of
  // construction, so it parallelizes); failures are collected and the first
  // one is rethrown after the pool is torn down. The worker lambda's
  // build-phase captures (errors/built) dangle once the constructor returns,
  // but worker_loop never touches them.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::mutex built_mutex;
  std::condition_variable built_cv;
  int built = 0;
  threads_.reserve(static_cast<std::size_t>(n - 1));
  for (int r = 1; r < n; ++r) {
    threads_.emplace_back([this, r, &errors, &built_mutex, &built_cv, &built] {
      try {
        ranks_[static_cast<std::size_t>(r)] = build_rank_state(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
      {
        // Notify under the lock: the constructor destroys built_cv as soon
        // as it sees the last count, which must not race this call.
        std::lock_guard<std::mutex> lk(built_mutex);
        ++built;
        built_cv.notify_all();
      }
      worker_loop(r);
    });
  }
  try {
    ranks_[0] = build_rank_state(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(built_mutex);
    built_cv.wait(lk, [&] { return built == n - 1; });
  }
  for (int r = 0; r < n; ++r) {
    if (errors[static_cast<std::size_t>(r)]) {
      shutdown();
      std::rethrow_exception(errors[static_cast<std::size_t>(r)]);
    }
  }
}

TpModel::~TpModel() { shutdown(); }

void TpModel::shutdown() {
  if (threads_.empty()) return;
  Job exit;
  exit.kind = Job::Kind::kExit;
  publish(exit);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

std::unique_ptr<TpModel::RankState> TpModel::build_rank_state(int rank) const {
  const nn::GptConfig& cfg = model_.config();
  const int n = config_.ranks;
  const std::int64_t d = cfg.head_dim();
  const std::int64_t hidden = cfg.hidden;
  // The geometry checks live on the rank, not the constructor: an
  // unshardable model is precisely a rank failing to build its shard, and
  // the constructor's error path propagates it.
  MGPT_CHECK(cfg.n_heads % n == 0, "tensor_parallel = "
                                       << n << " must divide n_heads = "
                                       << cfg.n_heads);
  MGPT_CHECK(cfg.kv_heads() % n == 0, "tensor_parallel = "
                                          << n << " must divide kv_heads = "
                                          << cfg.kv_heads());
  MGPT_CHECK(inner_total_ % n == 0, "tensor_parallel = "
                                        << n << " must divide the MLP inner dim = "
                                        << inner_total_);

  auto rs = std::make_unique<RankState>();
  rs->comm = std::make_unique<Communicator>(rank, group_);
  rs->q_heads = cfg.n_heads / n;
  rs->q_head_begin = rank * rs->q_heads;
  rs->kv_heads = cfg.kv_heads() / n;
  rs->kv_head_begin = rank * rs->kv_heads;
  rs->inner = inner_total_ / n;
  rs->inner_begin = rank * rs->inner;
  // lm_head vocab columns split as evenly as possible (V need not divide).
  const std::int64_t v = cfg.vocab_size;
  rs->vocab = v / n + (rank < v % n ? 1 : 0);
  rs->vocab_begin = rank * (v / n) + std::min<std::int64_t>(rank, v % n);

  auto find = [&](const std::string& name) -> const Var& {
    for (const nn::NamedParam& p : params_) {
      if (p.name == name) return p.var;
    }
    MGPT_CHECK(false, "tensor-parallel shard: model has no parameter '"
                          << name << "'");
    static Var undefined;
    return undefined;
  };
  auto col_shard = [&](const std::string& name, std::int64_t begin,
                       std::int64_t end) {
    return make_var(
        column_slice(nn::Linear::row_major(find(name)), begin, end), false);
  };
  auto row_shard = [&](const std::string& name, std::int64_t begin,
                       std::int64_t end) {
    return make_var(row_slice(nn::Linear::row_major(find(name)), begin, end),
                    false);
  };
  auto bias_shard = [&](const std::string& name, std::int64_t begin,
                        std::int64_t end) {
    return make_var(slice_1d(find(name).value(), begin, end), false);
  };

  const bool neox = cfg.arch == nn::ArchFamily::kNeoX;
  const bool col_gather = config_.layout == TpLayout::kColumnGather;
  const std::int64_t c_loc = hidden / n;  // n | n_heads implies n | hidden
  rs->layers.resize(static_cast<std::size_t>(cfg.n_layers));
  for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
    LayerShard& ls = rs->layers[static_cast<std::size_t>(l)];
    const std::string p = "blocks." + std::to_string(l) + ".";
    // Norm parameters are full-width and replicated: share the model's Vars.
    if (neox) {
      ls.n1_gamma = find(p + "ln1.gamma");
      ls.n1_beta = find(p + "ln1.beta");
      ls.n2_gamma = find(p + "ln2.gamma");
      ls.n2_beta = find(p + "ln2.beta");
    } else {
      ls.n1_gamma = find(p + "rms1.gamma");
      ls.n2_gamma = find(p + "rms2.gamma");
    }

    const std::int64_t qb = rs->q_head_begin * d;
    const std::int64_t qe = qb + rs->q_heads * d;
    const std::int64_t kb = rs->kv_head_begin * d;
    const std::int64_t ke = kb + rs->kv_heads * d;
    ls.wq = col_shard(p + "attn.q.weight", qb, qe);
    ls.wk = col_shard(p + "attn.k.weight", kb, ke);
    ls.wv = col_shard(p + "attn.v.weight", kb, ke);
    if (neox) {
      ls.bq = bias_shard(p + "attn.q.bias", qb, qe);
      ls.bk = bias_shard(p + "attn.k.bias", kb, ke);
      ls.bv = bias_shard(p + "attn.v.bias", kb, ke);
    }
    if (col_gather) {
      // o input is the gathered full-width attention output; shard o's
      // OUTPUT columns like any other projection.
      ls.wo = col_shard(p + "attn.o.weight", rank * c_loc, (rank + 1) * c_loc);
      if (neox) {
        ls.bo = bias_shard(p + "attn.o.bias", rank * c_loc, (rank + 1) * c_loc);
      }
    } else {
      // o input is this rank's head slice; shard o's INPUT rows to match and
      // allreduce the partial full-width outputs. Bias is added after the
      // reduce (full width, replicated).
      ls.wo = row_shard(p + "attn.o.weight", qb, qe);
      if (neox) ls.bo = find(p + "attn.o.bias");
    }

    const std::int64_t ib = rs->inner_begin;
    const std::int64_t ie = ib + rs->inner;
    if (neox) {
      ls.wu = col_shard(p + "mlp.up.weight", ib, ie);
      ls.bu = bias_shard(p + "mlp.up.bias", ib, ie);
    } else {
      ls.wg = col_shard(p + "mlp.gate.weight", ib, ie);
      ls.wu = col_shard(p + "mlp.up.weight", ib, ie);
    }
    if (col_gather) {
      ls.wd = col_shard(p + "mlp.down.weight", rank * c_loc, (rank + 1) * c_loc);
      if (neox) {
        ls.bd =
            bias_shard(p + "mlp.down.bias", rank * c_loc, (rank + 1) * c_loc);
      }
    } else {
      ls.wd = row_shard(p + "mlp.down.weight", ib, ie);
      if (neox) ls.bd = find(p + "mlp.down.bias");
    }
  }
  rs->lm_w = col_shard("lm_head.weight", rs->vocab_begin,
                       rs->vocab_begin + rs->vocab);
  return rs;
}

void TpModel::publish(const Job& job) {
  {
    std::lock_guard<std::mutex> lk(job_mutex_);
    job_ = job;
    ++job_gen_;
  }
  job_cv_.notify_all();
}

void TpModel::run(const Job& job) {
  publish(job);
  run_job(0, job);
}

void TpModel::worker_loop(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(job_mutex_);
      job_cv_.wait(lk, [&] { return job_gen_ != seen; });
      seen = job_gen_;
      job = job_;
    }
    if (job.kind == Job::Kind::kExit) return;
    // Only kExit can be published when this rank failed to build (the
    // constructor throws before any forward job exists).
    run_job(rank, job);
  }
}

Var TpModel::gather_cols(Tape& tape, int rank, const RankState& rs,
                         const Var& x, std::int64_t total_w,
                         double& comm_s) const {
  (void)rank;
  const std::int64_t rows = x.value().dim(0);
  Tensor full({rows, total_w});
  const double t0 = now_s();
  rs.comm->allgather_cols(x.value().span(), full.span(),
                          static_cast<std::size_t>(rows));
  comm_s += now_s() - t0;
  return tape.leaf(std::move(full), false);
}

Var TpModel::attention_shard(Tape& tape, int rank, const RankState& rs,
                             const LayerShard& ls, std::int64_t layer,
                             const Var& xn, const Job& job,
                             double& comm_s) const {
  const nn::GptConfig& cfg = model_.config();
  const nn::RaggedBatch& batch = *job.batch;
  const std::int64_t d = cfg.head_dim();
  const std::int64_t rows = static_cast<std::int64_t>(batch.tokens.size());
  const std::span<const std::int64_t> positions(
      job.positions, static_cast<std::size_t>(rows));
  const std::int64_t kv_row_loc = rs.kv_heads * d;

  Var q = ops::matmul(tape, xn, ls.wq);
  if (ls.bq.defined()) q = ops::add_bias(tape, q, ls.bq);
  q = ops::reshape(tape, q, {rows, rs.q_heads, d});
  q = ops::rope_rows(tape, q, positions, cfg.rope_theta, cfg.rotary_fraction);

  Var k = ops::matmul(tape, xn, ls.wk);
  if (ls.bk.defined()) k = ops::add_bias(tape, k, ls.bk);
  k = ops::reshape(tape, k, {rows, rs.kv_heads, d});
  k = ops::rope_rows(tape, k, positions, cfg.rope_theta, cfg.rotary_fraction);

  Var v = ops::matmul(tape, xn, ls.wv);
  if (ls.bv.defined()) v = ops::add_bias(tape, v, ls.bv);

  // Fill this rank's kv-head columns of the cache rows the driving thread
  // already extended, then attend over the history through a head-slice view.
  // Ranks touch disjoint bytes, and no rank reads another rank's heads, so
  // the layers need no synchronization between write and read.
  const float* k_rows = k.value().data();
  const float* v_rows = v.value().data();
  std::vector<ops::RaggedKv> hist(static_cast<std::size_t>(rows));
  std::int64_t r = 0;
  for (std::size_t i = 0; i < batch.caches.size(); ++i) {
    nn::PagedKvSeq& seq = *batch.caches[i]->seq();
    seq.write_rows(layer, positions[static_cast<std::size_t>(r)],
                   batch.counts[i], rs.kv_head_begin * d, kv_row_loc,
                   k_rows + r * kv_row_loc, v_rows + r * kv_row_loc);
    for (std::int64_t t = 0; t < batch.counts[i]; ++t, ++r) {
      ops::RaggedKv& h = hist[static_cast<std::size_t>(r)];
      h.len = positions[static_cast<std::size_t>(r)] + 1;
      h.head_offset = rs.kv_head_begin;
      h.kv_stride = cfg.kv_heads() * d;
      h.k_blocks = seq.k_blocks(layer);
      h.v_blocks = seq.v_blocks(layer);
      h.block_tokens = seq.block_tokens();
    }
  }

  Var attn =
      ops::decode_attention(tape, q, hist, rs.kv_heads, cfg.flash_attention);

  if (config_.layout == TpLayout::kColumnGather) {
    Var full = gather_cols(tape, rank, rs, attn, cfg.hidden, comm_s);
    Var o = ops::matmul(tape, full, ls.wo);
    if (ls.bo.defined()) o = ops::add_bias(tape, o, ls.bo);
    return gather_cols(tape, rank, rs, o, cfg.hidden, comm_s);
  }
  Var o = ops::matmul(tape, attn, ls.wo);
  const double t0 = now_s();
  rs.comm->allreduce_det(o.value().span());
  comm_s += now_s() - t0;
  if (ls.bo.defined()) o = ops::add_bias(tape, o, ls.bo);
  return o;
}

Var TpModel::mlp_shard(Tape& tape, int rank, const RankState& rs,
                       const LayerShard& ls, const Var& x,
                       double& comm_s) const {
  const nn::GptConfig& cfg = model_.config();
  Var inner;
  if (cfg.arch == nn::ArchFamily::kNeoX) {
    Var u = ops::matmul(tape, x, ls.wu);
    if (ls.bu.defined()) u = ops::add_bias(tape, u, ls.bu);
    inner = ops::gelu(tape, u);
  } else {
    Var g = ops::silu(tape, ops::matmul(tape, x, ls.wg));
    Var u = ops::matmul(tape, x, ls.wu);
    inner = ops::mul(tape, g, u);
  }
  if (config_.layout == TpLayout::kColumnGather) {
    Var full = gather_cols(tape, rank, rs, inner, inner_total_, comm_s);
    Var down = ops::matmul(tape, full, ls.wd);
    if (ls.bd.defined()) down = ops::add_bias(tape, down, ls.bd);
    return gather_cols(tape, rank, rs, down, cfg.hidden, comm_s);
  }
  Var down = ops::matmul(tape, inner, ls.wd);
  const double t0 = now_s();
  rs.comm->allreduce_det(down.value().span());
  comm_s += now_s() - t0;
  if (ls.bd.defined()) down = ops::add_bias(tape, down, ls.bd);
  return down;
}

void TpModel::run_job(int rank, const Job& job) {
  RankState& rs = *ranks_[static_cast<std::size_t>(rank)];
  const nn::GptConfig& cfg = model_.config();
  double comm_s = 0.0;

  Tape tape;
  NoGradGuard no_grad(tape);
  const nn::RaggedBatch& batch = *job.batch;

  // Every rank runs the full-width embedding / norms / residual stream
  // redundantly — identical bytes on every rank, which is what lets the
  // column-sharded projections slot in without a scatter.
  Var h = ops::embedding(tape, tok_emb_, batch.tokens);
  for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
    const LayerShard& ls = rs.layers[static_cast<std::size_t>(l)];
    auto norm = [&](const Var& x, const Var& gamma, const Var& beta) {
      return beta.defined() ? ops::layer_norm(tape, x, gamma, beta)
                            : ops::rms_norm(tape, x, gamma);
    };
    Var xn = norm(h, ls.n1_gamma, ls.n1_beta);
    Var attn = attention_shard(tape, rank, rs, ls, l, xn, job, comm_s);
    if (cfg.arch == nn::ArchFamily::kNeoX) {
      // Parallel residual with TransformerBlock's exact grouping:
      // x + (attn + mlp).
      Var mn = norm(h, ls.n2_gamma, ls.n2_beta);
      Var mlp = mlp_shard(tape, rank, rs, ls, mn, comm_s);
      h = ops::add(tape, h, ops::add(tape, attn, mlp));
    } else {
      Var mid = ops::add(tape, h, attn);
      Var mn = norm(mid, ls.n2_gamma, ls.n2_beta);
      Var mlp = mlp_shard(tape, rank, rs, ls, mn, comm_s);
      h = ops::add(tape, mid, mlp);
    }
  }
  if (job.rows < static_cast<std::int64_t>(batch.tokens.size())) {
    h = ops::gather_rows(tape, h, batch.last_rows());
  }
  h = final_beta_.defined() ? ops::layer_norm(tape, h, final_gamma_, final_beta_)
                            : ops::rms_norm(tape, h, final_gamma_);

  // Each rank writes its vocab columns straight into the caller's logits
  // tensor; the trailing barrier is both the logits fence and the job's
  // completion signal (rank 0 returning from it proves every rank is done).
  Var local = ops::matmul(tape, h, rs.lm_w);
  const float* src = local.value().data();
  for (std::int64_t r = 0; r < job.rows; ++r) {
    std::copy_n(src + r * rs.vocab, rs.vocab,
                job.logits + r * cfg.vocab_size + rs.vocab_begin);
  }
  const double t0 = now_s();
  rs.comm->barrier();
  comm_s += now_s() - t0;

  if (rank == 0) {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    stats_.jobs += 1;
    stats_.comm_seconds += comm_s;
  }
}

Var TpModel::forward(Tape& tape, const nn::RaggedBatch& batch) {
  const nn::GptConfig& cfg = model_.config();
  MGPT_CHECK(batch.n_layers == 0,
             "tensor-parallel forwards run the full model (n_layers 0)");
  const std::vector<std::int64_t> positions = batch.prepare(cfg);
  // Grow every table once here, on the driving thread: allocation and
  // copy-on-write forks are not safe to race, row writes on disjoint
  // columns are.
  for (std::size_t i = 0; i < batch.caches.size(); ++i) {
    for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
      batch.caches[i]->seq()->extend(l, batch.counts[i]);
    }
  }
  Job job;
  job.kind = Job::Kind::kForward;
  job.batch = &batch;
  job.positions = positions.data();
  job.rows = batch.logits == nn::LogitRows::kLast
                 ? batch.size()
                 : static_cast<std::int64_t>(batch.tokens.size());
  Tensor logits({job.rows, cfg.vocab_size});
  job.logits = logits.data();
  run(job);
  batch.commit();
  return tape.leaf(std::move(logits), false);
}

TpStats TpModel::stats() const {
  TpStats out;
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    out = stats_;
  }
  const Communicator& comm = *ranks_[0]->comm;
  out.bytes_gathered = comm.bytes_gathered();
  out.bytes_reduced = comm.bytes_reduced();
  return out;
}

}  // namespace matgpt::serve::tp
