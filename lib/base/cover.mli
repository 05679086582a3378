(** Offline range-minimum painting over step indices.

    The journal's resume analysis and the plan verifier both ask, for every
    watermark of a plan, whether some block access lies in a window that
    depends on the watermark.  Asked naively that is one scan of every access
    per watermark, quadratic in the plan's length; asked through {!min_cover}
    it is one sort plus a near-linear painting pass, after which each
    watermark's question is an array lookup. *)

val min_cover : n:int -> (int * int * int) list -> int array
(** [min_cover ~n intervals] maps every position [p] in [[0, n)] to the
    least [w] over the intervals [(lo, hi, w)] with [lo <= p <= hi], or to
    [max_int] when no interval covers [p].  Intervals may be empty
    ([lo > hi]) or reach outside [[0, n)]; only their part inside the range
    counts.  Runs in [O(k log k + n)] for [k] intervals (a sort by weight,
    then union-find skipping of already painted positions). *)
