type expected = {
  e_array : string;
  e_reads : int;
  e_read_bytes : int;
  e_mem_reads : int;
  e_writes : int;
  e_write_bytes : int;
  e_elided : int;
}

type actual = {
  a_array : string;
  a_reads : int;
  a_read_bytes : int;
  a_writes : int;
  a_write_bytes : int;
}

type divergence = {
  d_array : string;
  d_counter : string;
  d_predicted : int;
  d_actual : int;
}

type report = {
  rows : (expected * actual) list;
  divergences : divergence list;
  ok : bool;
}

let zero_expected name =
  { e_array = name;
    e_reads = 0;
    e_read_bytes = 0;
    e_mem_reads = 0;
    e_writes = 0;
    e_write_bytes = 0;
    e_elided = 0 }

let zero_actual name =
  { a_array = name; a_reads = 0; a_read_bytes = 0; a_writes = 0; a_write_bytes = 0 }

let predict (t : Cplan.t) =
  (* Every configured array appears, even if the plan never touches it. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ((name, _) : string * Riot_ir.Config.layout) ->
      Hashtbl.replace tbl name (zero_expected name))
    t.Cplan.config.Riot_ir.Config.layouts;
  let add array f = Hashtbl.replace tbl array (f (Hashtbl.find tbl array)) in
  let bytes array index = Cplan.block_bytes t { Cplan.array; index } in
  Seq.iter
    (function
      | Trace.Read { array; index; src = Trace.Disk; _ } ->
          add array (fun e ->
              { e with
                e_reads = e.e_reads + 1;
                e_read_bytes = e.e_read_bytes + bytes array index })
      | Trace.Read { array; src = Trace.Memory; _ } ->
          add array (fun e -> { e with e_mem_reads = e.e_mem_reads + 1 })
      | Trace.Write { array; index; elided = false; _ } ->
          add array (fun e ->
              { e with
                e_writes = e.e_writes + 1;
                e_write_bytes = e.e_write_bytes + bytes array index })
      | Trace.Write { array; elided = true; _ } ->
          add array (fun e -> { e with e_elided = e.e_elided + 1 })
      | _ -> ())
    (Cplan.events t);
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl []
  |> List.sort (fun a b -> compare a.e_array b.e_array)

let check (t : Cplan.t) ~(actual : actual list) =
  let expected = predict t in
  let names =
    List.sort_uniq compare
      (List.map (fun e -> e.e_array) expected @ List.map (fun a -> a.a_array) actual)
  in
  let rows =
    List.map
      (fun name ->
        let e =
          Option.value ~default:(zero_expected name)
            (List.find_opt (fun e -> e.e_array = name) expected)
        in
        let a =
          Option.value ~default:(zero_actual name)
            (List.find_opt (fun a -> a.a_array = name) actual)
        in
        (e, a))
      names
  in
  let divergences =
    List.concat_map
      (fun (e, a) ->
        let d counter predicted actual =
          if predicted = actual then []
          else [ { d_array = e.e_array; d_counter = counter; d_predicted = predicted; d_actual = actual } ]
        in
        d "reads" e.e_reads a.a_reads
        @ d "bytes_read" e.e_read_bytes a.a_read_bytes
        @ d "writes" e.e_writes a.a_writes
        @ d "bytes_written" e.e_write_bytes a.a_write_bytes)
      rows
  in
  { rows; divergences; ok = divergences = [] }

let pp_report ppf r =
  Format.fprintf ppf "%-10s %-12s %-12s %-12s %-12s %-10s %-8s@." "array"
    "pred reads" "act reads" "pred writes" "act writes" "mem reads" "elided";
  List.iter
    (fun (e, a) ->
      Format.fprintf ppf "%-10s %-12d %-12d %-12d %-12d %-10d %-8d%s@." e.e_array
        e.e_reads a.a_reads e.e_writes a.a_writes e.e_mem_reads e.e_elided
        (if e.e_reads = a.a_reads && e.e_writes = a.a_writes
            && e.e_read_bytes = a.a_read_bytes && e.e_write_bytes = a.a_write_bytes
         then ""
         else "  <- DIVERGES"))
    r.rows;
  if r.ok then Format.fprintf ppf "cost check: OK (%d arrays)@." (List.length r.rows)
  else begin
    Format.fprintf ppf "cost check: %d divergence(s)@." (List.length r.divergences);
    List.iter
      (fun d ->
        Format.fprintf ppf "  %s.%s: predicted %d, actual %d@." d.d_array d.d_counter
          d.d_predicted d.d_actual)
      r.divergences
  end
