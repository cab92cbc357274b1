#include "hw/core.hpp"

#include <vector>

#include "hw/machine.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace mv::hw {

Status Core::deliver(InterruptFrame frame) {
  const Gate& gate = idt_[frame.vector];
  if (!gate.handler) {
    return err(Err::kState,
               strfmt("core %u: no IDT handler for vector %u", id_,
                      unsigned{frame.vector}));
  }
  if (Tracer::instance().enabled()) {
    Tracer::instance().instant(
        id_, "irq", strfmt("vector%u", unsigned{frame.vector}));
  }
  if (frame.vector == kVecPageFault) ++page_faults_taken_;
  charge(costs().page_fault_vector);
  frame.cpl_before = cpl_;
  const int saved_cpl = cpl_;
  cpl_ = 0;  // exceptions vector to ring 0
  // IST handling: index != 0 means the hardware switched to a known-good
  // stack, which is what protects the red zone of interrupted leaf functions.
  gate.handler(*this, frame);
  cpl_ = saved_cpl;
  charge(costs().iret_insn);
  return Status::ok();
}

Result<TranslateOk> Core::translate(std::uint64_t vaddr, Access access,
                                    PageFaultInfo* fault) {
  // TLB consult. The permission check still applies on a hit.
  if (const Tlb::Entry* e = tlb_.lookup(vaddr)) {
    charge(costs().tlb_hit);
    if (!permits(e->flags, access, cpl_, cr0_wp_)) {
      return page_fault(vaddr, access, cpl_, /*present=*/true, fault);
    }
    return TranslateOk{e->page_paddr | page_offset(vaddr), e->flags};
  }

  // Miss: charged hardware page walk against CR3.
  charge(costs().page_walk_level * PageTables::kWalkLevels);
  auto result = machine_->paging().translate(cr3_, vaddr, access, cpl_,
                                             cr0_wp_, fault);
  if (result) {
    tlb_.insert(vaddr, page_floor(result->paddr), result->flags);
  }
  return result;
}

Status Core::access_common(std::uint64_t vaddr, Access access, void* out,
                           const void* in, std::uint64_t len) {
  // Page-by-page: an access may span pages; each page may fault separately.
  std::uint64_t done = 0;
  while (done < len || (len == 0 && done == 0)) {
    const std::uint64_t addr = vaddr + done;
    const std::uint64_t chunk =
        len == 0 ? 0 : std::min(len - done, kPageSize - page_offset(addr));
    PageFaultInfo fault;
    auto t = translate(addr, access, &fault);
    // Hardware re-faults as long as the access cannot complete. Bounded
    // retries: the Multiverse repeat-fault path needs a second delivery (the
    // first forwards to the ROS, the second triggers a PML4 re-merge).
    for (int attempt = 0; !t && attempt < 3; ++attempt) {
      if (t.code() != Err::kPageFault) return t.status();
      InterruptFrame frame;
      frame.vector = kVecPageFault;
      frame.error_code = fault.error_code();
      frame.fault_addr = addr;
      MV_RETURN_IF_ERROR(deliver(frame));
      t = translate(addr, access, &fault);
    }
    if (!t) {
      return err(Err::kFault, strfmt("unrepaired fault at %#llx",
                                     static_cast<unsigned long long>(addr)));
    }
    charge(costs().mem_access);
    if (len == 0) return Status::ok();  // pure touch
    if (out != nullptr) {
      MV_RETURN_IF_ERROR(
          machine_->mem().read(t->paddr, static_cast<std::uint8_t*>(out) + done,
                               chunk));
    }
    if (in != nullptr) {
      MV_RETURN_IF_ERROR(machine_->mem().write(
          t->paddr, static_cast<const std::uint8_t*>(in) + done, chunk));
    }
    done += chunk;
  }
  return Status::ok();
}

Status Core::mem_read(std::uint64_t vaddr, void* out, std::uint64_t len) {
  return access_common(vaddr, Access::kRead, out, nullptr, len);
}

Status Core::mem_write(std::uint64_t vaddr, const void* in, std::uint64_t len) {
  return access_common(vaddr, Access::kWrite, nullptr, in, len);
}

Status Core::mem_touch(std::uint64_t vaddr, Access access) {
  return access_common(vaddr, access, nullptr, nullptr, 0);
}

}  // namespace mv::hw
