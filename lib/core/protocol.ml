(* The shootdown-protocol backend interface. One value of [t] per
   Opts.protocol constructor (proto_paper — which also defines the FreeBSD
   and unsafe-lazy variants — proto_oracle, proto_sync, proto_queue);
   Shootdown dispatches on the variant exactly once and everything
   protocol-specific flows through these hooks. Each backend registers its
   IPI handler through Flush_core.shootdown_irq. *)

type t = {
  name : string;
      (* stable label, = Opts.protocol_label of the matching constructor *)
  always_full : bool;
      (* flush-decision hook: request construction never builds ranged
         infos, and a local full flush invalidates the user PCID on the
         spot instead of deferring to return-to-user (the oracle) *)
  paper_elisions : bool;
      (* the §4.2 userspace-batching deferral and the §4.1 CoW local-flush
         elision apply under this backend *)
  perform :
    Machine.t -> from:int -> mm:Mm_struct.t -> Flush_info.t -> Checker.token -> unit;
      (* one complete shootdown for an info whose generation is already
         bumped; must close the checker window on every path *)
  responder_pending : Machine.t -> cpu:int -> bool;
      (* ack-tracking hook: does this CPU have outstanding responder work
         (posted but unexecuted flushes)? Feeds nmi_uaccess_okay. *)
  quiescent : Machine.t -> cpu:int -> (string -> unit) -> unit;
      (* invariant hook: report (via the callback) any backend state that
         should not survive quiescence; Explorer.post_invariants drives it *)
}

(* The Opts.protocol -> t dispatch lives in Shootdown (each backend module
   depends on this interface type, so the table cannot live here without a
   cycle). *)
