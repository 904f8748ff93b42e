(** Aligned plain-text tables, used by the bench harness to print each paper
    table/figure in the same row/column layout the paper reports. *)

type t

(** A column of a table whose rows are ['r] values: its header, its
    alignment and the function rendering a row's cell, declared together. *)
type 'r column

val left : string -> ('r -> string) -> 'r column
val right : string -> ('r -> string) -> 'r column

(** [of_rows ~title columns rows] is a table with one row per element of
    [rows], in order. *)
val of_rows : title:string -> 'r column list -> 'r list -> t

(** Cell formatting helpers. *)
val fmt_f : ?decimals:int -> float -> string

val fmt_pct : ?decimals:int -> float -> string
val fmt_i : int -> string

(** [render t] produces the table as a string (title, rule, header, rows). *)
val render : t -> string

(** [to_csv t] renders header + rows as RFC-4180-ish CSV (quotes doubled,
    fields with commas/quotes/newlines quoted). The title is not
    included. *)
val to_csv : t -> string

(** [print t] renders to stdout followed by a blank line. *)
val print : t -> unit
