(** Streaming statistics and simple fixed-width histograms.

    Experiment drivers accumulate per-iteration cycle counts here and the
    reporting layer extracts mean / stddev / percentiles, mirroring the
    paper's "average and standard deviation of 5 executions" methodology.

    Moments (count/total/mean/stddev/min/max) are streaming and exact for
    any number of samples. Percentiles come from a bounded retained-sample
    buffer: exact up to [cap] samples (default 8192 — far above every
    existing experiment's iteration count), after which the buffer switches
    to a deterministic systematic subsample (every other retained sample is
    dropped and the retention stride doubles). The subsample is a pure
    function of the input stream, so sharded runs merge to byte-identical
    reports regardless of worker count. *)

type t

(** [create ()] uses the default retention cap (8192 samples);
    [~cap] overrides it (minimum 2). *)
val create : ?cap:int -> unit -> t

(** Record one sample. O(1) amortized; memory bounded by [cap]. *)
val add : t -> float -> unit

val count : t -> int

(** Number of samples currently retained for percentile estimation. *)
val retained : t -> int

(** [true] while no thinning has happened, i.e. percentiles are exact. *)
val exact_percentiles : t -> bool

val total : t -> float
val mean : t -> float

(** Sample standard deviation (Welford); 0 for fewer than two samples. *)
val stddev : t -> float

(** Smallest/largest sample; [None] when no samples were recorded. *)
val min_opt : t -> float option

val max_opt : t -> float option

(** [percentile_opt t p] for [p] in [\[0,100\]] (clamped); interpolates
    between retained samples. [None] when the series is empty. Exact while
    {!exact_percentiles} holds, an estimate over the deterministic
    subsample after. *)
val percentile_opt : t -> float -> float option

val median_opt : t -> float option

(** Merge the second accumulator into the first. Moments combine exactly
    (Chan's parallel variance formula); the second's retained samples feed
    the first's retention buffer in insertion order. Deterministic, and
    associative over a fixed merge order — the plan-order reduce in
    [Workloads.Shard] relies on this for [-j N] byte-identity. *)
val merge_into : t -> t -> unit

(** Renders ["n=0 (no samples)"] for an empty series (never a fake 0.0
    summary) and flags subsampled percentiles. *)
val pp : Format.formatter -> t -> unit

(** Fixed-width histogram over [\[lo, hi)] with [buckets] bins. Samples
    outside the range are NOT clamped into the edge bins — they increment
    explicit underflow/overflow counters (NaN samples get their own
    counter) so the edge buckets always mean what they say. *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> buckets:int -> h
  val add : h -> float -> unit

  (** In-range bin counts only; see {!underflow}/{!overflow}/{!nan_count}
      for the rest. *)
  val counts : h -> int array

  val underflow : h -> int
  val overflow : h -> int
  val nan_count : h -> int
  val lo : h -> float
  val hi : h -> float
  val buckets : h -> int

  (** All samples ever added: bins + underflow + overflow + NaN. *)
  val total : h -> int

  (** [bucket_of h x] is the bin index for an in-range [x], [None] for
      underflow/overflow/NaN. *)
  val bucket_of : h -> float -> int option

  (** Add [src]'s counts into [dst]. Raises [Invalid_argument] unless both
      share lo/hi/bucket-count. *)
  val merge_into : h -> h -> unit

  val pp : Format.formatter -> h -> unit
end
