(** Optimization switches — the paper's Table 1 — plus the mitigation mode.

    Each flag corresponds to one of the six techniques; figures are produced
    by enabling them cumulatively. [safe] selects "safe mode" (PTI +
    Spectre/Meltdown mitigations, Linux's default) versus "unsafe mode"
    (mitigations off); under [safe], every address space has separate kernel
    and user PCIDs and user PTEs must be flushed too. *)

(** Shootdown-protocol backend selector — the only way to choose a
    protocol. Each constructor names one {!Protocol} backend:
    - [Paper]: the paper's optimized Linux protocol (default) — targeted
      IPIs, generation bookkeeping, and every Table-1 optimization gated by
      the flags below.
    - [Oracle]: the conservative differential-testing reference — every PTE
      change one synchronous whole-TLB broadcast to every other CPU, no
      deferral/batching/early-ack/filtering.
    - [Sync_broadcast]: cronus-style single-global-lock synchronous full
      broadcast — one machine-wide status table, the initiator
      self-invalidates, then spins until every other CPU has flushed.
    - [Queue_spin]: charmos-style per-CPU bounded ring-buffer queue with
      initial-spin/backoff/resend retry and flush-all collapsing when a
      target's ring overflows.
    - [Freebsd]: the FreeBSD comparator (paper §2.1/§3.3) — the paper
      protocol with every remote shootdown inside the global smp_ipi_mtx
      ({!Machine.ipi_mutex}), so only one is in flight machine-wide; pair
      with the 4096-entry full-flush threshold via {!freebsd}. Safe but
      serializing.
    - [Unsafe_lazy]: the LATR-style strawman (paper §2.3.2) — flush
      locally, never notify remote CPUs. Deliberately unsafe; exists to let
      the {!Checker} demonstrate the paper's correctness argument. *)
type protocol = Paper | Oracle | Sync_broadcast | Queue_spin | Freebsd | Unsafe_lazy

(** Stable lowercase label ("paper", "oracle", "sync-broadcast",
    "queue-spin", "freebsd", "unsafe-lazy") used in {!key}, CLI flags,
    metrics rows and reports. *)
val protocol_label : protocol -> string

(** Inverse of {!protocol_label}; also accepts the short forms "sync" and
    "queue". *)
val protocol_of_string : string -> protocol option

(** Every safe backend, in fixed report order: all constructors but the
    [Unsafe_lazy] strawman, so every sweep over this list must hold. *)
val all_protocols : protocol list

type t = {
  mutable safe : bool;  (** PTI + mitigations on *)
  mutable concurrent_flush : bool;  (** §3.1 flush local TLB while waiting *)
  mutable early_ack : bool;  (** §3.2 ack on handler entry *)
  mutable cacheline_consolidation : bool;  (** §3.3 merged kernel cachelines *)
  mutable in_context_flush : bool;  (** §3.4 defer user flushes to kernel exit *)
  mutable cow_avoid_flush : bool;  (** §4.1 dummy write instead of INVLPG *)
  mutable userspace_batching : bool;  (** §4.2 batch flushes in msync etc. *)
  mutable bug_skip_deferred_flush : bool;
      (** Injected protocol bug for the race detector: drop deferred user
          flushes (§3.4) at kernel exit instead of executing them. The
          happens-before analyzer must flag the resulting stale user-PCID
          hits as genuine races. *)
  mutable protocol : protocol;
      (** Which shootdown backend performs remote invalidation. All
          protocol-specific behaviour in {!Shootdown} flows through the
          {!Protocol} interface selected by this field. *)
  mutable spec_pte_recache_p : float;
      (** probability that, between a CoW fault and its PTE update, a
          speculative page walk re-caches the stale PTE (paper §4.1's
          motivation for the explicit write) *)
  mutable full_flush_threshold : int;  (** Linux's 33-entry ceiling *)
  mutable batch_slots : int;  (** deferred flush_tlb_info entries, paper: 4 *)
}

(** Everything off: stock Linux 5.2.8 behaviour in the given mode. *)
val baseline : safe:bool -> t

(** The four general techniques of §3 enabled. *)
val all_general : safe:bool -> t

(** All six optimizations. *)
val all : safe:bool -> t

(** FreeBSD-flavoured baseline: [protocol = Freebsd] (serialized
    shootdowns) and the 4096-entry full-flush ceiling (§2.1). *)
val freebsd : safe:bool -> t

(** Baseline with the given backend selected and every optimization off. *)
val with_protocol : protocol -> safe:bool -> t

val copy : t -> t

(** Cumulative stacks in paper order:
    baseline, +concurrent, +early ack, +cacheline, (+in-context when [safe]).
    Each pair is (label, opts). *)
val cumulative_general : safe:bool -> (string * t) list

(** Cumulative stacks for the workload figures (adds batching last):
    concurrent, +early ack, +cacheline, (+in-context when safe), +batching. *)
val cumulative_workload : safe:bool -> (string * t) list

(** Canonical value key over every field: equal keys iff behaviourally
    identical opts. Used by the bench harness to memoize identical
    (config, seed) cells across experiments. *)
val key : t -> string

val pp : Format.formatter -> t -> unit
