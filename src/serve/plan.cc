#include "serve/plan.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"
#include "tensor/qgemm.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace serve {

using optrace::OpKind;

// ---- Result recycling -------------------------------------------------------

// Reply tensors cannot live in the arena (the next request overwrites it), so
// Execute exports the output region into a block from this free list. Blocks
// return when the caller drops the reply tensor; the deleter holds a
// shared_ptr to the pool, so replies may outlive the plan itself.
class CompiledPlan::ResultPool
    : public std::enable_shared_from_this<CompiledPlan::ResultPool> {
 public:
  explicit ResultPool(int64_t floats) : floats_(std::max<int64_t>(1, floats)) {}

  ~ResultPool() {
    for (float* block : free_) {
      std::allocator<float>().deallocate(block, static_cast<size_t>(floats_));
    }
  }

  // msd-hot-path-safe: bounded critical section around a pointer free list;
  // the allocation branch only runs while a previous reply is still held
  // (steady state pops a recycled block).
  float* Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        float* block = free_.back();
        free_.pop_back();
        return block;
      }
    }
    return std::allocator<float>().allocate(static_cast<size_t>(floats_));
  }

  // msd-hot-path-safe: one shared_ptr control block per reply — the single
  // remaining per-request ownership cost, documented in docs/COMPILER.md.
  Tensor Wrap(float* block, const Shape& shape) {
    std::shared_ptr<ResultPool> self = shared_from_this();
    std::shared_ptr<void> owner(
        static_cast<void*>(block),
        [self](void* p) { self->Release(static_cast<float*>(p)); });
    return Tensor::FromExternal(shape, block, std::move(owner));
  }

 private:
  // msd-hot-path-safe: same contract as Acquire. push_back can grow the free
  // list only until the pool has seen its peak number of in-flight replies.
  void Release(float* block) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(block);
  }

  const int64_t floats_;
  std::mutex mu_;
  std::vector<float*> free_;
};

// ---- Schedule step ----------------------------------------------------------

// One executable entry: kernel kind, prebuilt operand/output views (arena
// regions or pinned constants), and the attributes its kernel needs.
struct CompiledPlan::Step {
  OpKind kind = OpKind::kAdd;
  Tensor a, b, c;  // operands; b/c undefined where the kind takes fewer
  Tensor out;
  // kMatMulEx against a constant [k, n] weight: b repacked at freeze time
  // so Execute calls the prepacked GEMM (no per-call pack, no pool buffer).
  Tensor packed_b;
  int64_t gemm_k = 0, gemm_n = 0;
  // Quantized GEMM (CompileOptions::quantize, after per-step calibration):
  // freeze-time int8 weights + per-channel scales. Execute then quantizes
  // the step's activations into the shared quant arena and runs
  // qgemm::QGemmPrepacked instead of the fp32 prepacked kernel.
  bool quantized = false;
  std::vector<int8_t> q_weights;
  std::vector<float> q_scales;
  float scalar = 0.0f;
  std::vector<int64_t> dims;
  int64_t dim = 0, start = 0, length = 0, before = 0, after = 0;
  float pad_value = 0.0f;
  gemm::Activation act = gemm::Activation::kIdentity;
  // Diagnostics only.
  std::string region_path;
  int64_t out_offset = -1;  // arena byte offset of out (-1: constant)
};

namespace {

// ---- Compile-time IR --------------------------------------------------------

struct SlotRec {
  Tensor pinned;  // first-seen tensor; keeps the traced buffer alive
  bool is_constant = false;
  bool is_input = false;
  // Recomputed against the post-fusion schedule.
  int def_step = -1;
  int last_use_step = -1;
};

struct Node {
  OpKind kind = OpKind::kAdd;
  std::vector<int> args;          // slot ids; -1 for an undefined operand
  std::vector<Shape> arg_shapes;  // per-use shapes (reshape-aware)
  int out = -1;
  Shape out_shape;
  float scalar = 0.0f;
  std::vector<int64_t> dims;
  int64_t dim = 0, start = 0, length = 0, before = 0, after = 0;
  float pad_value = 0.0f;
  gemm::Activation act = gemm::Activation::kIdentity;
  std::string region_path;
  bool dead = false;
};

// Operand indexes of `kind` whose region may be reused for the output
// (in-place): elementwise index-aligned kernels only. The Zip3-backed fused
// kinds allow arg0 alone — their second pass reads c after out is written,
// so b/c must stay disjoint (enforced by the clash check at the call site).
std::vector<int> InPlaceCandidates(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
      return {0, 1};
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kSqrt:
    case OpKind::kAbs:
    case OpKind::kSquare:
    case OpKind::kRelu:
    case OpKind::kGelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kCopy:
      return {0};
    case OpKind::kSubDivFused:
    case OpKind::kMulAddFused:
    case OpKind::kSliceSubFused:
      return {0};
    default:
      return {};
  }
}

// `slot` when it holds `bytes`; else a new arena of that size, put in `slot`.
std::shared_ptr<arena::Arena> ArenaOfAtLeast(
    std::shared_ptr<arena::Arena>& slot, int64_t bytes) {
  if (slot == nullptr || slot->bytes() < bytes) {
    slot = std::make_shared<arena::Arena>(bytes);
  }
  return slot;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& n : names) {
    if (!joined.empty()) joined += ", ";
    joined += n;
  }
  return joined;
}

}  // namespace

CompiledPlan::CompiledPlan() = default;
CompiledPlan::~CompiledPlan() = default;

std::unique_ptr<CompiledPlan> CompiledPlan::Compile(
    const ForwardFn& fn, const Tensor& example, std::string* why_not,
    const CompileOptions& options, SharedArenas* shared) {
  MSD_CHECK(example.defined());
  auto fail = [why_not](std::string reason) -> std::unique_ptr<CompiledPlan> {
    if (why_not != nullptr) *why_not = std::move(reason);
    return nullptr;
  };

  // ---- 1. Record one interpreted forward -----------------------------------
  optrace::Begin();
  Tensor traced_out = fn(example);
  optrace::Trace trace = optrace::End();
  if (!trace.unsupported.empty()) {
    return fail("unsupported ops in trace: " + JoinNames(trace.unsupported));
  }
  if (trace.ops.empty()) return fail("trace recorded no ops");
  if (!traced_out.defined()) return fail("forward returned undefined");

  // ---- 2. Intern buffers into slots (pointer identity = buffer identity) --
  std::vector<SlotRec> slots;
  std::unordered_map<const float*, int> slot_of;
  auto intern_operand = [&](const Tensor& t) -> int {
    auto it = slot_of.find(t.data());
    if (it != slot_of.end()) return it->second;
    SlotRec rec;
    rec.pinned = t;
    rec.is_input = t.data() == example.data();
    rec.is_constant = !rec.is_input;
    slots.push_back(std::move(rec));
    slot_of.emplace(t.data(), static_cast<int>(slots.size()) - 1);
    return static_cast<int>(slots.size()) - 1;
  };

  std::vector<Node> nodes;
  nodes.reserve(trace.ops.size());
  for (const optrace::RecordedOp& op : trace.ops) {
    Node n;
    n.kind = op.kind;
    for (const Tensor& in : op.inputs) {
      if (!in.defined()) {
        n.args.push_back(-1);
        n.arg_shapes.emplace_back();
        continue;
      }
      n.args.push_back(intern_operand(in));
      n.arg_shapes.push_back(in.shape());
    }
    MSD_CHECK(op.output.defined());
    if (slot_of.count(op.output.data()) != 0) {
      // A fresh pool block per recorded output is the pinning contract; a
      // repeat pointer means an op wrote into an existing buffer.
      return fail("op output buffer reused; trace is not SSA");
    }
    n.out = intern_operand(op.output);
    slots[static_cast<size_t>(n.out)].is_constant = false;
    slots[static_cast<size_t>(n.out)].is_input = false;
    n.out_shape = op.output.shape();
    n.scalar = op.scalar;
    n.dims = op.dims;
    n.dim = op.dim;
    n.start = op.start;
    n.length = op.length;
    n.before = op.before;
    n.after = op.after;
    n.pad_value = op.pad_value;
    n.act = op.act;
    n.region_path = op.region;
    nodes.push_back(std::move(n));
  }
  // Producing node per slot (pre-fusion), for the peephole pass.
  std::vector<int> def_node(slots.size(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    def_node[static_cast<size_t>(nodes[i].out)] = static_cast<int>(i);
  }

  auto out_it = slot_of.find(traced_out.data());
  if (out_it == slot_of.end()) {
    return fail("forward output was not produced by a traced op");
  }
  const int out_slot = out_it->second;

  // ---- 3. Peephole fusion ---------------------------------------------------
  // Use counts over the whole graph (plus one export read of the output);
  // a producer is only folded into its consumer when the intermediate has
  // exactly one reader and no reshape changed its view in between.
  std::vector<int> uses(slots.size(), 0);
  for (const Node& n : nodes) {
    for (int a : n.args) {
      if (a >= 0) ++uses[static_cast<size_t>(a)];
    }
  }
  ++uses[static_cast<size_t>(out_slot)];

  int64_t fused = 0;
  auto single_use_producer = [&](const Node& n, int arg_idx,
                                 OpKind want) -> Node* {
    const int slot = n.args[static_cast<size_t>(arg_idx)];
    if (slot < 0 || slot == out_slot) return nullptr;
    const int d = def_node[static_cast<size_t>(slot)];
    if (d < 0) return nullptr;
    Node& p = nodes[static_cast<size_t>(d)];
    if (p.dead || p.kind != want) return nullptr;
    if (uses[static_cast<size_t>(slot)] != 1) return nullptr;
    // The consumer must read the producer's buffer under its original shape
    // (no reshape in between) or the fused broadcast would differ.
    if (n.arg_shapes[static_cast<size_t>(arg_idx)] != p.out_shape) {
      return nullptr;
    }
    return &p;
  };

  for (Node& n : nodes) {
    if (n.dead) continue;
    if (n.kind == OpKind::kDiv) {
      // (a - b) / c — the RevIN / scaler normalize chain.
      Node* p = single_use_producer(n, 0, OpKind::kSub);
      if (p != nullptr && p->out_shape == n.out_shape) {
        const int c = n.args[1];
        const Shape c_shape = n.arg_shapes[1];
        n.kind = OpKind::kSubDivFused;
        n.args = {p->args[0], p->args[1], c};
        n.arg_shapes = {p->arg_shapes[0], p->arg_shapes[1], c_shape};
        p->dead = true;
        ++fused;
      }
      continue;
    }
    if (n.kind == OpKind::kAdd) {
      // a * b + c — denormalize / inverse-transform / bias-free affine.
      // Addition is commutative bitwise, so the Mul may sit on either side.
      for (int side = 0; side < 2; ++side) {
        Node* p = single_use_producer(n, side, OpKind::kMul);
        if (p == nullptr || p->out_shape != n.out_shape) continue;
        const int c = n.args[static_cast<size_t>(1 - side)];
        const Shape c_shape = n.arg_shapes[static_cast<size_t>(1 - side)];
        n.kind = OpKind::kMulAddFused;
        n.args = {p->args[0], p->args[1], c};
        n.arg_shapes = {p->arg_shapes[0], p->arg_shapes[1], c_shape};
        p->dead = true;
        ++fused;
        break;
      }
      continue;
    }
    if (n.kind == OpKind::kSub) {
      // a - Slice(src) — the per-scale residual subtract, minus the copy.
      Node* p = single_use_producer(n, 1, OpKind::kSlice);
      if (p != nullptr && p->out_shape == n.out_shape &&
          n.arg_shapes[0] == n.out_shape) {
        n.kind = OpKind::kSliceSubFused;
        n.args = {n.args[0], p->args[0]};
        n.arg_shapes = {n.arg_shapes[0], p->arg_shapes[0]};
        n.dim = p->dim;
        n.start = p->start;
        n.length = p->length;
        p->dead = true;
        ++fused;
      }
      continue;
    }
  }

  // ---- 4. Lifetimes over the compacted schedule ----------------------------
  std::vector<int> schedule;  // node index per step
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].dead) schedule.push_back(static_cast<int>(i));
  }
  const int num_steps = static_cast<int>(schedule.size());
  for (int s = 0; s < num_steps; ++s) {
    const Node& n = nodes[static_cast<size_t>(schedule[static_cast<size_t>(s)])];
    for (int a : n.args) {
      if (a >= 0) slots[static_cast<size_t>(a)].last_use_step = s;
    }
    slots[static_cast<size_t>(n.out)].def_step = s;
  }
  slots[static_cast<size_t>(out_slot)].last_use_step = num_steps;  // export

  // ---- 5. In-place aliasing + region merging -------------------------------
  // region id == representative slot id. Merging the output of an
  // elementwise step onto an operand that (a) lives in the arena, (b) has
  // the exact output shape, (c) dies at this step, and (d) shares no region
  // with any other operand of the step turns the kernel into an in-place
  // update — the alias the kernels' exact-alias-or-disjoint policy permits.
  auto in_arena = [&](int slot) {
    const SlotRec& r = slots[static_cast<size_t>(slot)];
    if (r.is_constant) return false;
    // Unreferenced buffers (fused-away intermediates) need no storage.
    return r.is_input || r.def_step >= 0;
  };
  std::vector<int> region_of(slots.size(), -1);
  std::vector<int> region_last(slots.size(), -1);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].last_use_step < 0 && !slots[i].is_input) continue;
    if (!in_arena(static_cast<int>(i))) continue;
    region_of[i] = static_cast<int>(i);
    region_last[i] = slots[i].last_use_step;
  }
  int64_t inplace = 0;
  for (int s = 0; s < num_steps; ++s) {
    const Node& n = nodes[static_cast<size_t>(schedule[static_cast<size_t>(s)])];
    for (int cand : InPlaceCandidates(n.kind)) {
      if (cand >= static_cast<int>(n.args.size())) continue;
      const int t = n.args[static_cast<size_t>(cand)];
      if (t < 0) continue;
      const SlotRec& rec = slots[static_cast<size_t>(t)];
      if (rec.is_constant || rec.is_input) continue;
      if (n.arg_shapes[static_cast<size_t>(cand)] != n.out_shape) continue;
      const int rt = region_of[static_cast<size_t>(t)];
      if (rt < 0 || region_last[static_cast<size_t>(rt)] != s) continue;
      bool clash = false;
      for (size_t other = 0; other < n.args.size(); ++other) {
        if (static_cast<int>(other) == cand || n.args[other] < 0) continue;
        if (region_of[static_cast<size_t>(n.args[other])] == rt) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      region_of[static_cast<size_t>(n.out)] = rt;
      region_last[static_cast<size_t>(rt)] = std::max(
          region_last[static_cast<size_t>(rt)],
          slots[static_cast<size_t>(n.out)].last_use_step);
      ++inplace;
      break;
    }
  }

  // ---- 6. First-fit offset packing -----------------------------------------
  // Region lifetime = [min def over members, max last_use over members];
  // bytes = the common member size (shape-equality on merge guarantees it).
  struct Region {
    int id = -1;
    int64_t bytes = 0;
    int first_def = 0;
    int last_use = 0;
    int64_t offset = -1;
  };
  std::unordered_map<int, Region> regions;
  for (size_t i = 0; i < slots.size(); ++i) {
    const int r = region_of[i];
    if (r < 0) continue;
    Region& reg = regions[r];
    const int def = slots[i].is_input ? -1 : slots[i].def_step;
    const int64_t bytes =
        slots[i].pinned.numel() * static_cast<int64_t>(sizeof(float));
    if (reg.id < 0) {
      reg = Region{r, bytes, def, slots[i].last_use_step, -1};
    } else {
      reg.bytes = std::max(reg.bytes, bytes);
      reg.first_def = std::min(reg.first_def, def);
      reg.last_use = std::max(reg.last_use, slots[i].last_use_step);
    }
  }
  std::vector<Region*> order;
  order.reserve(regions.size());
  for (auto& [id, reg] : regions) order.push_back(&reg);
  std::sort(order.begin(), order.end(), [](const Region* x, const Region* y) {
    if (x->first_def != y->first_def) return x->first_def < y->first_def;
    return x->id < y->id;
  });
  int64_t arena_bytes = 0;
  for (Region* reg : order) {
    if (reg->bytes == 0) {
      reg->offset = 0;  // zero-numel buffers take no space
      continue;
    }
    // Collect live conflicts, then scan for the lowest aligned gap.
    std::vector<std::pair<int64_t, int64_t>> busy;  // [offset, end)
    for (const Region* other : order) {
      if (other == reg || other->offset < 0 || other->bytes == 0) continue;
      const bool overlap = reg->first_def <= other->last_use &&
                           other->first_def <= reg->last_use;
      if (overlap) busy.emplace_back(other->offset, other->offset + other->bytes);
    }
    std::sort(busy.begin(), busy.end());
    int64_t candidate = 0;
    for (const auto& [lo, hi] : busy) {
      if (candidate + reg->bytes <= lo) break;
      candidate = std::max(candidate, arena::AlignUp(hi));
    }
    reg->offset = candidate;
    arena_bytes = std::max(arena_bytes, candidate + reg->bytes);
  }

  // ---- 7. Materialize the plan ---------------------------------------------
  SharedArenas own;
  SharedArenas& arenas = shared != nullptr ? *shared : own;
  std::unique_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->arena_ = ArenaOfAtLeast(arenas.activations, arena_bytes);
  auto offset_of = [&](int slot) -> int64_t {
    const int r = region_of[static_cast<size_t>(slot)];
    MSD_CHECK_GE(r, 0);
    auto it = regions.find(r);
    MSD_CHECK(it != regions.end());
    return it->second.offset;
  };
  auto view = [&](int slot, const Shape& shape) -> Tensor {
    const SlotRec& rec = slots[static_cast<size_t>(slot)];
    if (rec.is_constant) {
      // Constants are read in place from the pinned buffer (a reshape view
      // when the use shape differs — shares storage, no copy).
      return rec.pinned.shape() == shape ? rec.pinned
                                         : rec.pinned.Reshape(shape);
    }
    return Tensor::FromExternal(shape, plan->arena_->at(offset_of(slot)),
                                plan->arena_->owner());
  };

  plan->input_shape_ = example.shape();
  plan->output_shape_ = traced_out.shape();
  plan->input_view_ = view(slot_of.at(example.data()), example.shape());
  plan->output_view_ = view(out_slot, traced_out.shape());
  for (const int ni : schedule) {
    const Node& n = nodes[static_cast<size_t>(ni)];
    Step step;
    step.kind = n.kind;
    step.a = view(n.args[0], n.arg_shapes[0]);
    if (n.args.size() > 1 && n.args[1] >= 0) {
      step.b = view(n.args[1], n.arg_shapes[1]);
      if (n.kind == OpKind::kMatMulEx && n.arg_shapes[1].size() == 2 &&
          slots[static_cast<size_t>(n.args[1])].is_constant) {
        // Every Linear hits this: a frozen rank-2 weight shared across the
        // batch. Pack it once now; Execute skips the per-call B pack.
        step.packed_b = PackGemmB(step.b);
        step.gemm_k = n.arg_shapes[1][0];
        step.gemm_n = n.arg_shapes[1][1];
        ++plan->stats_.num_prepacked;
      }
    }
    if (n.args.size() > 2 && n.args[2] >= 0) {
      step.c = view(n.args[2], n.arg_shapes[2]);
    }
    step.out = view(n.out, n.out_shape);
    step.scalar = n.scalar;
    step.dims = n.dims;
    step.dim = n.dim;
    step.start = n.start;
    step.length = n.length;
    step.before = n.before;
    step.after = n.after;
    step.pad_value = n.pad_value;
    step.act = n.act;
    step.region_path = n.region_path;
    step.out_offset = offset_of(n.out);
    plan->steps_.push_back(std::move(step));
  }
  for (const SlotRec& rec : slots) {
    if (rec.is_constant) plan->constants_.push_back(rec.pinned);
  }
  plan->results_ = std::make_shared<ResultPool>(traced_out.numel());

  plan->stats_.traced_ops = static_cast<int64_t>(trace.ops.size());
  plan->stats_.num_ops = num_steps;
  plan->stats_.num_fused = fused;
  plan->stats_.num_inplace = inplace;
  plan->stats_.num_regions = static_cast<int64_t>(regions.size());
  plan->stats_.arena_bytes = arena_bytes;
  for (const Region* reg : order) {
    plan->regions_.push_back(
        RegionInfo{reg->offset, reg->bytes, reg->first_def, reg->last_use});
  }

  // ---- 8. Freeze-time validation -------------------------------------------
  // Replay the example through the fresh plan and require bitwise equality
  // with the interpreted output. A mismatch means a planner bug; refuse the
  // plan rather than serve wrong (or merely different) bits.
  Tensor replay = plan->Execute(example);
  if (replay.shape() != traced_out.shape() ||
      std::memcmp(replay.data(), traced_out.data(),
                  static_cast<size_t>(traced_out.numel()) * sizeof(float)) !=
          0) {
    return fail("freeze-time validation: planned replay is not bit-identical");
  }

  // ---- 9. Quantization pass (opt-in) ---------------------------------------
  // Runs only after the fp32 plan has passed its memcmp gate, so every step
  // a candidate falls back to is the validated fp32 schedule.
  if (options.quantize) {
    plan->QuantizePass(example, options.quant_max_rel_error, arenas.quant);
  }
  return plan;
}

void CompiledPlan::QuantizePass(const Tensor& example, float max_rel_error,
                                std::shared_ptr<arena::Arena>& scratch) {
  // Eligible: a prepacked constant-weight rank-2 GEMM whose inner dimension
  // fits the int32 accumulator bound and that has any work at all. (s.b is
  // the pinned fp32 weight view; it stays defined alongside packed_b.)
  auto eligible = [](const Step& s) {
    return s.packed_b.defined() && s.gemm_k >= 1 &&
           s.gemm_k <= qgemm::kMaxK && s.gemm_n >= 1 && s.a.numel() > 0;
  };
  // Size the shared activation scratch for the largest eligible candidate
  // (an over-reserve when some candidates fall back; activations are small
  // next to the fp32 arena and the gauge reports the true figure).
  int64_t max_aq_bytes = 0;
  int64_t max_scale_bytes = 0;
  for (const Step& s : steps_) {
    if (!eligible(s)) continue;
    const int64_t m = s.a.numel() / s.gemm_k;
    max_aq_bytes = std::max(
        max_aq_bytes,
        m * qgemm::QuantARowInt16s(s.gemm_k) *
            static_cast<int64_t>(sizeof(int16_t)));
    max_scale_bytes = std::max(
        max_scale_bytes, m * static_cast<int64_t>(sizeof(float)));
  }
  if (max_aq_bytes == 0) return;
  quant_scales_offset_ = arena::AlignUp(max_aq_bytes);
  const int64_t scratch_bytes = quant_scales_offset_ + max_scale_bytes;
  quant_arena_ = ArenaOfAtLeast(scratch, scratch_bytes);

  // Calibration replay: every step runs fp32 (so downstream candidates see
  // exact fp32 inputs and per-step error never compounds); each candidate
  // is then re-executed int8 into scratch and compared against the fp32
  // output it would replace.
  CopyInto(example, input_view_);
  std::vector<float> qout;
  for (Step& s : steps_) {
    RunStep(s);
    if (!eligible(s)) continue;
    const int64_t k = s.gemm_k;
    const int64_t n = s.gemm_n;
    const int64_t m = s.a.numel() / k;
    std::vector<int8_t> qw(
        static_cast<size_t>(qgemm::PackedQuantBInt8s(k, n)));
    std::vector<float> qs(static_cast<size_t>(qgemm::QuantBScaleFloats(n)));
    qgemm::QuantizeWeightsPerChannel(s.b.data(), k, n, qw.data(), qs.data());
    int16_t* aq = reinterpret_cast<int16_t*>(quant_arena_->base());
    float* ascales = quant_arena_->at(quant_scales_offset_);
    qgemm::QuantizeActivationsPerRow(s.a.data(), m, k, aq, ascales);
    qout.assign(static_cast<size_t>(m * n), 0.0f);
    qgemm::QGemmPrepacked(aq, ascales, qw.data(), qs.data(), qout.data(), m,
                          k, n, s.c.defined() ? s.c.data() : nullptr, s.act);
    double num = 0.0;
    double den = 0.0;
    const float* f = s.out.data();
    for (int64_t i = 0; i < m * n; ++i) {
      const double d = static_cast<double>(qout[static_cast<size_t>(i)]) -
                       static_cast<double>(f[i]);
      num += d * d;
      den += static_cast<double>(f[i]) * static_cast<double>(f[i]);
    }
    // Relative Frobenius error; an exactly-zero fp32 output accepts only an
    // exactly-zero quantized output.
    const bool ok =
        num == 0.0 || (den > 0.0 && std::sqrt(num / den) <= max_rel_error);
    if (ok) {
      s.quantized = true;
      s.q_weights = std::move(qw);
      s.q_scales = std::move(qs);
      ++stats_.num_quantized;
    } else {
      ++stats_.num_quant_fallbacks;
    }
  }
  if (stats_.num_quantized == 0) {
    quant_arena_.reset();
    quant_scales_offset_ = 0;
    return;
  }
  stats_.quant_arena_bytes = arena::AlignUp(scratch_bytes);
}

// msd-hot-path: one schedule step — the kernel dispatch shared by Execute
// and the quantization pass's calibration replay.
void CompiledPlan::RunStep(Step& s) {
  switch (s.kind) {
    case OpKind::kAdd:
      AddInto(s.a, s.b, s.out);
      break;
    case OpKind::kSub:
      SubInto(s.a, s.b, s.out);
      break;
    case OpKind::kMul:
      MulInto(s.a, s.b, s.out);
      break;
    case OpKind::kDiv:
      DivInto(s.a, s.b, s.out);
      break;
    case OpKind::kAddScalar:
      AddScalarInto(s.a, s.scalar, s.out);
      break;
    case OpKind::kMulScalar:
      MulScalarInto(s.a, s.scalar, s.out);
      break;
    case OpKind::kNeg:
      NegInto(s.a, s.out);
      break;
    case OpKind::kExp:
      ExpInto(s.a, s.out);
      break;
    case OpKind::kLog:
      LogInto(s.a, s.out);
      break;
    case OpKind::kSqrt:
      SqrtInto(s.a, s.out);
      break;
    case OpKind::kAbs:
      AbsInto(s.a, s.out);
      break;
    case OpKind::kSquare:
      SquareInto(s.a, s.out);
      break;
    case OpKind::kRelu:
      ReluInto(s.a, s.out);
      break;
    case OpKind::kGelu:
      GeluInto(s.a, s.out);
      break;
    case OpKind::kSigmoid:
      SigmoidInto(s.a, s.out);
      break;
    case OpKind::kTanh:
      TanhInto(s.a, s.out);
      break;
    case OpKind::kMatMulEx: {
      if (s.quantized) {
        // Int8 path: per-row dynamic activation quant into the shared
        // scratch arena, then the int8 kernel with its fused dequant +
        // bias + activation epilogue.
        const int64_t m = s.a.numel() / s.gemm_k;
        int16_t* aq = reinterpret_cast<int16_t*>(quant_arena_->base());
        float* ascales =
            quant_arena_->base() +
            quant_scales_offset_ / static_cast<int64_t>(sizeof(float));
        qgemm::QuantizeActivationsPerRow(s.a.data(), m, s.gemm_k, aq,
                                         ascales);
        qgemm::QGemmPrepacked(aq, ascales, s.q_weights.data(),
                              s.q_scales.data(), s.out.data(), m, s.gemm_k,
                              s.gemm_n, s.c.defined() ? s.c.data() : nullptr,
                              s.act);
      } else if (s.packed_b.defined()) {
        MatMulExPrepackedInto(s.a, s.packed_b, s.gemm_k, s.gemm_n, s.c,
                              s.act, s.out);
      } else {
        MatMulExInto(s.a, s.b, s.c, s.act, s.out);
      }
      break;
    }
    case OpKind::kSum:
      SumInto(s.a, s.dims, s.out);
      break;
    case OpKind::kPermute:
      PermuteInto(s.a, s.dims, s.out);
      break;
    case OpKind::kSlice:
      SliceInto(s.a, s.dim, s.start, s.length, s.out);
      break;
    case OpKind::kPad:
      PadInto(s.a, s.dim, s.before, s.after, s.pad_value, s.out);
      break;
    case OpKind::kCopy:
      CopyInto(s.a, s.out);
      break;
    case OpKind::kSubDivFused:
      SubDivInto(s.a, s.b, s.c, s.out);
      break;
    case OpKind::kMulAddFused:
      MulAddInto(s.a, s.b, s.c, s.out);
      break;
    case OpKind::kSliceSubFused:
      SliceSubInto(s.a, s.b, s.dim, s.start, s.length, s.out);
      break;
  }
}

// msd-hot-path: the planned serving forward — a flat kernel schedule over
// preplanned arena views. No pool traffic, no per-op ownership, no branches
// beyond the kind dispatch; the session lock is the exclusion domain.
Tensor CompiledPlan::Execute(const Tensor& input) {
  MSD_CHECK(input.defined());
  MSD_CHECK(input.shape() == input_shape_)
      << "plan expects input " << ShapeToString(input_shape_) << ", got "
      << ShapeToString(input.shape());
  static obs::Counter& plan_ops =
      obs::MetricsRegistry::Global().GetCounter("serve/plan_ops");
  CopyInto(input, input_view_);
  for (Step& s : steps_) RunStep(s);
  plan_ops.Add(static_cast<int64_t>(steps_.size()));
  float* block = results_->Acquire();
  std::memcpy(block, output_view_.data(),
              static_cast<size_t>(output_view_.numel()) * sizeof(float));
  return results_->Wrap(block, output_shape_);
}

std::vector<RegionInfo> CompiledPlan::Regions() const { return regions_; }

std::string CompiledPlan::DebugString() const {
  std::ostringstream out;
  out << "CompiledPlan: " << stats_.num_ops << " ops ("
      << stats_.traced_ops << " traced, " << stats_.num_fused << " fused, "
      << stats_.num_inplace << " in-place, " << stats_.num_prepacked
      << " prepacked), " << stats_.num_regions << " regions, "
      << stats_.arena_bytes << " arena bytes";
  if (stats_.num_quantized > 0 || stats_.num_quant_fallbacks > 0) {
    out << ", int8: " << stats_.num_quantized << " quantized / "
        << stats_.num_quant_fallbacks << " fp32 fallbacks, "
        << stats_.quant_arena_bytes << " quant arena bytes";
  }
  out << "\n";
  out << "  input  " << ShapeToString(input_shape_) << "\n";
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    out << "  %" << i << " = " << optrace::OpKindName(s.kind) << " "
        << ShapeToString(s.out.shape()) << " @" << s.out_offset;
    if (s.quantized) out << "  int8";
    if (!s.region_path.empty()) out << "  // " << s.region_path;
    out << "\n";
  }
  out << "  output " << ShapeToString(output_shape_);
  return out.str();
}

}  // namespace serve
}  // namespace msd
