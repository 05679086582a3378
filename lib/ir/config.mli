(** Size configurations: concrete parameter values plus the physical layout
    (block grid, elements per block, element size) of every array.

    The same program template is costed and executed under different
    configurations (the paper's Tables 2-4). *)

type layout = { grid : int array; block_elems : int array; elem_size : int }

type t = { params : (string * int) list; layouts : (string * layout) list }

val make : params:(string * int) list -> layouts:(string * layout) list -> t

val param : t -> string -> int
(** @raise Not_found *)

val layout : t -> string -> layout
(** @raise Not_found *)

(** The sizes below are overflow-checked products.
    @raise Riot_base.Checked.Overflow when one does not fit an [int]. *)

val block_bytes : layout -> int
(** Bytes per block. *)

val block_count : layout -> int
(** Number of blocks in the grid. *)

val total_bytes : layout -> int

val block_elems_total : layout -> int

val matrix :
  t -> string -> block_rows:int -> block_cols:int -> grid_rows:int -> grid_cols:int -> t
(** Add a 2-d matrix layout of double-precision elements (8 bytes). *)

val pp : Format.formatter -> t -> unit
