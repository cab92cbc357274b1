#pragma once

// A miniature VCODE interpreter. VCODE is the stack-based vector VM that
// NESL compiles to; the paper's authors hand-ported the real one to Nautilus
// as one of their three HRT runtimes ("namely Legion, the NESL VCODE
// interpreter, and the runtime of a home-grown nested data parallel
// language"). This reimplementation interprets a textual instruction stream
// over a stack of flat double vectors (no segment descriptors — documented
// simplification), with vector storage allocated through the guest mmap
// interface so the runtime hybridizes exactly like the Scheme engine does.
//
// Instruction set (one per line, ';' comments):
//   CONST x        push scalar x (a length-1 vector)
//   IOTA           pop scalar n, push [0, 1, ..., n-1]
//   DIST           pop scalar n, pop scalar v, push n copies of v
//   ADD SUB MUL DIV  elementwise (broadcasting length-1 operands)
//   MIN MAX          elementwise
//   REDUCE op      pop vector, push scalar fold (op in + * min max)
//   SCAN op        pop vector, push exclusive prefix scan
//   PERMUTE        pop index vector, pop data, push data[index]
//   PACK           pop flag vector, pop data, push data where flag != 0
//   LENGTH         pop vector, push its length
//   DUP            duplicate the top of stack
//   POP            drop the top of stack
//   SWAP           exchange the two top entries
//   PRINT          pop and print the top vector

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ros/guest.hpp"
#include "support/result.hpp"

namespace mv::vcode {

struct VmStats {
  std::uint64_t instructions = 0;
  std::uint64_t elements_processed = 0;
  std::uint64_t vectors_allocated = 0;
  std::uint64_t peak_stack_depth = 0;
};

class Vm {
 public:
  explicit Vm(ros::SysIface& sys) : sys_(&sys) {}
  ~Vm();

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // Parse and run a whole program; output accumulates via PRINT.
  Status run(const std::string& program);

  // Stack inspection for tests.
  [[nodiscard]] std::size_t stack_depth() const noexcept {
    return stack_.size();
  }

  [[nodiscard]] const VmStats& stats() const noexcept { return stats_; }

 private:
  // A vector value: payload host-side, backing pages guest-side (mmap'd).
  struct Vec {
    std::uint64_t guest_base = 0;
    std::uint64_t guest_len = 0;  // bytes reserved
    std::vector<double> data;
  };

  Result<Vec> make_vec(std::vector<double> data);
  void release(Vec& vec);
  Result<Vec> pop();
  Status push(Vec vec);
  Result<double> pop_scalar();
  void charge_elements(std::size_t n);

  Status exec(const std::string& opcode, const std::string& operand);
  Status exec_binary(const std::string& opcode);
  Status exec_reduce(const std::string& op, bool scan);

  ros::SysIface* sys_;
  std::vector<Vec> stack_;
  VmStats stats_;
};

}  // namespace mv::vcode
