(** The shootdown-protocol backend interface (DESIGN.md §13).

    One value of {!t} per {!Opts.protocol} constructor — {!Proto_paper}
    (which also defines the [Freebsd] and [Unsafe_lazy] variants of the
    paper record), {!Proto_oracle}, {!Proto_sync}, {!Proto_queue} — and
    {!Shootdown} dispatches on the variant exactly once per entry point.
    The hooks fall into the four groups the interface exists for:

    - {b perform}: the initiator side of one complete shootdown;
    - {b ipi handler}: each backend registers its responder handler once
      per machine through {!Flush_core.shootdown_irq} and sends by id;
    - {b flush decisions}: [always_full] and [paper_elisions] — the
      request-construction and deferral policies that used to be scattered
      [oracle_flush] branches;
    - {b ack tracking}: [responder_pending] (outstanding responder work,
      for [nmi_uaccess_okay]) and [quiescent] (what must not survive
      quiescence, for the explorer's invariant pass). *)

type t = {
  name : string;
      (** stable label, equal to {!Opts.protocol_label} of the matching
          constructor *)
  always_full : bool;
      (** request construction never builds ranged infos, and a local full
          flush invalidates the user PCID on the spot instead of deferring
          to return-to-user (the oracle) *)
  paper_elisions : bool;
      (** the §4.2 userspace-batching deferral and the §4.1 CoW local-flush
          elision apply under this backend (the paper record and its
          variants) *)
  perform :
    Machine.t -> from:int -> mm:Mm_struct.t -> Flush_info.t -> Checker.token -> unit;
      (** one complete shootdown for an info whose generation is already
          bumped; closes the checker window on every path *)
  responder_pending : Machine.t -> cpu:int -> bool;
      (** does this CPU have outstanding responder work (posted but
          unexecuted flushes)? Feeds [nmi_uaccess_okay]. *)
  quiescent : Machine.t -> cpu:int -> (string -> unit) -> unit;
      (** report (via the callback) any backend state that should not
          survive quiescence; [Explorer.post_invariants] drives it *)
}
