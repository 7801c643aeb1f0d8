(** The paper's optimized Linux protocol backend (Figures 1/3): targeted
    IPIs over the mm cpumask with lazy/batched filtering, generation
    bookkeeping, and every Table-1 optimization gated by {!Opts} flags. *)

val backend : Protocol.t

(** [Opts.Freebsd]: {!backend} whose [perform] runs its remote shootdown
    inside the {!Machine.ipi_mutex} write lock (FreeBSD's smp_ipi_mtx), so
    only one is in flight machine-wide. The §4.1 CoW elision path, when
    [cow_avoid_flush] is on, sends through {!send_remote} without the
    lock. *)
val freebsd : Protocol.t

(** [Opts.Unsafe_lazy]: {!backend} whose [perform] flushes locally and
    never notifies remote CPUs — the LATR-style strawman of paper §2.3.2,
    deliberately unsafe. *)
val unsafe_lazy : Protocol.t

(** Select remote shootdown targets into [from]'s scratch cpuset, skipping
    lazy-TLB CPUs and (under §4.2) CPUs inside batching syscalls; one
    remote line read per candidate. Exposed for the CoW elision path in
    {!Shootdown.flush_tlb_page_cow}, which is paper-protocol machinery. *)
val select_targets :
  Machine.t -> from:int -> mm:Mm_struct.t -> Flush_info.t -> Cpuset.t

(** Enqueue CFDs for the non-empty [targets] and send them the shootdown
    IPI, returning the CFDs to wait on. Meters prep as [sel_dt] (the
    caller's target-selection cycles) plus the enqueue and ICR writes. The
    remote half shared by the [perform] of {!backend} and {!freebsd} and by
    {!Shootdown.flush_tlb_page_cow}. *)
val send_remote :
  Machine.t ->
  from:int ->
  targets:Cpuset.t ->
  sel_dt:int ->
  Flush_info.t ->
  Percpu.cfd array
