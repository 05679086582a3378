let min_cover ~n intervals =
  let m = Array.make (max n 0) max_int in
  (* [next.(p)] leads, through path-halved links, to the first unpainted
     position at or after [p]; position [n] is a sentinel. *)
  let next = Array.init (max n 0 + 1) Fun.id in
  let rec find p =
    let q = next.(p) in
    if q = p then p
    else begin
      next.(p) <- next.(q);
      find next.(p)
    end
  in
  (* Lightest interval first: a painted position already holds its minimum. *)
  List.iter
    (fun (lo, hi, w) ->
      let lo = max lo 0 and hi = min hi (n - 1) in
      let p = ref (if lo > hi then n else find lo) in
      while !p <= hi do
        m.(!p) <- w;
        next.(!p) <- !p + 1;
        p := find (!p + 1)
      done)
    (List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) intervals);
  m
