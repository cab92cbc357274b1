#include "runtime/vcode/vcode.hpp"

#include <algorithm>
#include <cmath>

#include "hw/phys_mem.hpp"
#include "support/strings.hpp"

namespace mv::vcode {

namespace {
// Simulated cycles charged per element of vector work.
constexpr double kElementCycles = 2.0;
// A program that outgrows either bound fails instead of exhausting the host.
constexpr std::size_t kMaxStack = 256;
constexpr std::size_t kMaxVector = 1 << 22;
}  // namespace

Vm::~Vm() {
  for (Vec& vec : stack_) release(vec);
}

void Vm::charge_elements(std::size_t n) {
  stats_.elements_processed += n;
  sys_->charge_user(static_cast<std::uint64_t>(
      static_cast<double>(n) * kElementCycles + 20));
}

Result<Vm::Vec> Vm::make_vec(std::vector<double> data) {
  if (data.size() > kMaxVector) {
    return err(Err::kLimit, "vector exceeds the VM's size limit");
  }
  Vec vec;
  vec.guest_len = hw::page_ceil(std::max<std::uint64_t>(
      data.size() * sizeof(double), 1));
  // Vector storage is guest memory: allocation (and later release) flows
  // through mmap/munmap just like the real interpreter's vector heap.
  MV_ASSIGN_OR_RETURN(vec.guest_base,
                      sys_->mmap(0, vec.guest_len,
                                 ros::kProtRead | ros::kProtWrite,
                                 ros::kMapPrivate | ros::kMapAnonymous));
  // First-touch the backing so residency and fault behaviour are real. A
  // page that cannot be touched fails the allocation (and so the program)
  // instead of leaving the vector silently unbacked.
  for (std::uint64_t off = 0; off < vec.guest_len; off += hw::kPageSize) {
    const Status touched =
        sys_->mem_touch(vec.guest_base + off, hw::Access::kWrite);
    if (!touched.is_ok()) {
      release(vec);
      return touched;
    }
  }
  vec.data = std::move(data);
  ++stats_.vectors_allocated;
  return vec;
}

void Vm::release(Vec& vec) {
  if (vec.guest_base != 0) {
    (void)sys_->munmap(vec.guest_base, vec.guest_len);
    vec.guest_base = 0;
  }
}

Result<Vm::Vec> Vm::pop() {
  if (stack_.empty()) return err(Err::kState, "VCODE stack underflow");
  Vec vec = std::move(stack_.back());
  stack_.pop_back();
  return vec;
}

Status Vm::push(Vec vec) {
  if (stack_.size() >= kMaxStack) {
    release(vec);
    return err(Err::kLimit, "VCODE stack overflow");
  }
  stack_.push_back(std::move(vec));
  stats_.peak_stack_depth =
      std::max<std::uint64_t>(stats_.peak_stack_depth, stack_.size());
  return Status::ok();
}

Result<double> Vm::pop_scalar() {
  MV_ASSIGN_OR_RETURN(Vec vec, pop());
  if (vec.data.size() != 1) {
    release(vec);
    return err(Err::kInval, "expected a scalar (length-1 vector)");
  }
  const double v = vec.data[0];
  release(vec);
  return v;
}

Status Vm::exec_binary(const std::string& opcode) {
  MV_ASSIGN_OR_RETURN(Vec b, pop());
  auto a_result = pop();
  if (!a_result) {
    release(b);
    return a_result.status();
  }
  Vec a = std::move(*a_result);
  // Broadcast length-1 operands, like VCODE's scalar extension.
  const std::size_t n = std::max(a.data.size(), b.data.size());
  if ((a.data.size() != n && a.data.size() != 1) ||
      (b.data.size() != n && b.data.size() != 1)) {
    release(a);
    release(b);
    return err(Err::kInval, opcode + ": length mismatch");
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = a.data[a.data.size() == 1 ? 0 : i];
    const double y = b.data[b.data.size() == 1 ? 0 : i];
    if (opcode == "ADD") out[i] = x + y;
    else if (opcode == "SUB") out[i] = x - y;
    else if (opcode == "MUL") out[i] = x * y;
    else if (opcode == "DIV") {
      if (y == 0) {
        release(a);
        release(b);
        return err(Err::kInval, "DIV: division by zero");
      }
      out[i] = x / y;
    } else if (opcode == "MIN") out[i] = std::min(x, y);
    else if (opcode == "MAX") out[i] = std::max(x, y);
    else if (opcode == "GT") out[i] = x > y ? 1.0 : 0.0;
    else if (opcode == "LT") out[i] = x < y ? 1.0 : 0.0;
    else out[i] = x == y ? 1.0 : 0.0;  // EQ
  }
  charge_elements(n);
  release(a);
  release(b);
  MV_ASSIGN_OR_RETURN(Vec result, make_vec(std::move(out)));
  return push(std::move(result));
}

Status Vm::exec_reduce(const std::string& op, bool scan) {
  MV_ASSIGN_OR_RETURN(Vec vec, pop());
  const auto apply = [&op](double acc, double x) {
    if (op == "+") return acc + x;
    if (op == "*") return acc * x;
    if (op == "min") return std::min(acc, x);
    return std::max(acc, x);  // "max"
  };
  if (op != "+" && op != "*" && op != "min" && op != "max") {
    release(vec);
    return err(Err::kInval, "unknown reduction operator: " + op);
  }
  const double identity = op == "+"   ? 0.0
                          : op == "*" ? 1.0
                          : op == "min"
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
  std::vector<double> out;
  if (scan) {
    out.resize(vec.data.size());
    double acc = identity;
    for (std::size_t i = 0; i < vec.data.size(); ++i) {
      out[i] = acc;  // exclusive scan, as VCODE defines
      acc = apply(acc, vec.data[i]);
    }
  } else {
    double acc = identity;
    for (const double x : vec.data) acc = apply(acc, x);
    out.push_back(acc);
  }
  charge_elements(vec.data.size());
  release(vec);
  MV_ASSIGN_OR_RETURN(Vec result, make_vec(std::move(out)));
  return push(std::move(result));
}

Status Vm::exec(const std::string& opcode, const std::string& operand) {
  ++stats_.instructions;
  if (opcode == "CONST") {
    char* end = nullptr;
    const double v = std::strtod(operand.c_str(), &end);
    if (operand.empty() || end != operand.c_str() + operand.size()) {
      return err(Err::kParse, "CONST: bad literal '" + operand + "'");
    }
    MV_ASSIGN_OR_RETURN(Vec vec, make_vec({v}));
    return push(std::move(vec));
  }
  if (opcode == "IOTA") {
    MV_ASSIGN_OR_RETURN(const double n, pop_scalar());
    if (n < 0 || n > static_cast<double>(kMaxVector)) {
      return err(Err::kInval, "IOTA: bad length");
    }
    std::vector<double> out(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<double>(i);
    }
    charge_elements(out.size());
    MV_ASSIGN_OR_RETURN(Vec vec, make_vec(std::move(out)));
    return push(std::move(vec));
  }
  if (opcode == "DIST") {
    MV_ASSIGN_OR_RETURN(const double n, pop_scalar());
    MV_ASSIGN_OR_RETURN(const double v, pop_scalar());
    if (n < 0 || n > static_cast<double>(kMaxVector)) {
      return err(Err::kInval, "DIST: bad length");
    }
    std::vector<double> out(static_cast<std::size_t>(n), v);
    charge_elements(out.size());
    MV_ASSIGN_OR_RETURN(Vec vec, make_vec(std::move(out)));
    return push(std::move(vec));
  }
  if (opcode == "ADD" || opcode == "SUB" || opcode == "MUL" ||
      opcode == "DIV" || opcode == "MIN" || opcode == "MAX" ||
      opcode == "GT" || opcode == "LT" || opcode == "EQ") {
    return exec_binary(opcode);
  }
  if (opcode == "PICK") {
    // PICK k: push a copy of the k-th entry from the top (0 = DUP). The NDP
    // compiler uses this to reference let-bound values by stack slot.
    char* end = nullptr;
    const long k = std::strtol(operand.c_str(), &end, 10);
    if (operand.empty() || end != operand.c_str() + operand.size() || k < 0) {
      return err(Err::kParse, "PICK: bad operand '" + operand + "'");
    }
    if (static_cast<std::size_t>(k) >= stack_.size()) {
      return err(Err::kState, "PICK: stack underflow");
    }
    MV_ASSIGN_OR_RETURN(
        Vec copy,
        make_vec(stack_[stack_.size() - 1 - static_cast<std::size_t>(k)].data));
    return push(std::move(copy));
  }
  if (opcode == "REDUCE") return exec_reduce(operand, /*scan=*/false);
  if (opcode == "SCAN") return exec_reduce(operand, /*scan=*/true);
  if (opcode == "PERMUTE") {
    MV_ASSIGN_OR_RETURN(Vec idx, pop());
    auto data_result = pop();
    if (!data_result) {
      release(idx);
      return data_result.status();
    }
    Vec data = std::move(*data_result);
    std::vector<double> out(idx.data.size());
    for (std::size_t i = 0; i < idx.data.size(); ++i) {
      const auto j = static_cast<std::int64_t>(idx.data[i]);
      if (j < 0 || static_cast<std::size_t>(j) >= data.data.size()) {
        release(idx);
        release(data);
        return err(Err::kRange, "PERMUTE: index out of range");
      }
      out[i] = data.data[static_cast<std::size_t>(j)];
    }
    charge_elements(out.size());
    release(idx);
    release(data);
    MV_ASSIGN_OR_RETURN(Vec vec, make_vec(std::move(out)));
    return push(std::move(vec));
  }
  if (opcode == "PACK") {
    MV_ASSIGN_OR_RETURN(Vec flags, pop());
    auto data_result = pop();
    if (!data_result) {
      release(flags);
      return data_result.status();
    }
    Vec data = std::move(*data_result);
    if (flags.data.size() != data.data.size()) {
      release(flags);
      release(data);
      return err(Err::kInval, "PACK: length mismatch");
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < data.data.size(); ++i) {
      if (flags.data[i] != 0) out.push_back(data.data[i]);
    }
    charge_elements(data.data.size());
    release(flags);
    release(data);
    MV_ASSIGN_OR_RETURN(Vec vec, make_vec(std::move(out)));
    return push(std::move(vec));
  }
  if (opcode == "LENGTH") {
    MV_ASSIGN_OR_RETURN(Vec vec, pop());
    const auto n = static_cast<double>(vec.data.size());
    release(vec);
    MV_ASSIGN_OR_RETURN(Vec out, make_vec({n}));
    return push(std::move(out));
  }
  if (opcode == "DUP") {
    if (stack_.empty()) return err(Err::kState, "DUP: stack underflow");
    MV_ASSIGN_OR_RETURN(Vec copy, make_vec(stack_.back().data));
    return push(std::move(copy));
  }
  if (opcode == "POP") {
    MV_ASSIGN_OR_RETURN(Vec vec, pop());
    release(vec);
    return Status::ok();
  }
  if (opcode == "SWAP") {
    if (stack_.size() < 2) return err(Err::kState, "SWAP: stack underflow");
    std::swap(stack_[stack_.size() - 1], stack_[stack_.size() - 2]);
    return Status::ok();
  }
  if (opcode == "PRINT") {
    MV_ASSIGN_OR_RETURN(Vec vec, pop());
    std::string line = "[";
    for (std::size_t i = 0; i < vec.data.size(); ++i) {
      if (i) line += " ";
      line += strfmt("%g", vec.data[i]);
    }
    line += "]\n";
    release(vec);
    return sys_->write_str(1, line).status();
  }
  return err(Err::kParse, "unknown VCODE instruction: " + opcode);
}

Status Vm::run(const std::string& program) {
  int lineno = 0;
  for (const std::string& raw : split(program, '\n')) {
    ++lineno;
    std::string_view line = trim(raw);
    const auto comment = line.find(';');
    if (comment != std::string_view::npos) {
      line = trim(line.substr(0, comment));
    }
    if (line.empty()) continue;
    const auto space = line.find(' ');
    const std::string opcode(line.substr(0, space));
    const std::string operand(
        space == std::string_view::npos
            ? std::string_view{}
            : trim(line.substr(space + 1)));
    const Status s = exec(opcode, operand);
    if (!s.is_ok()) {
      return err(s.code(),
                 strfmt("line %d: %s", lineno, s.detail().c_str()));
    }
  }
  return Status::ok();
}

}  // namespace mv::vcode
