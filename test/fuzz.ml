(* Totality properties for the parsers of external input: whatever the
   bytes, a parser returns [Ok] or [Error] and never raises.

   Inputs are arbitrary strings, or one of the format's valid [seeds]
   damaged by a few edits: a byte substituted, inserted or deleted, or
   the tail cut off. Substituted and inserted bytes come mostly from the
   format's own [punct]uation, so a mutant keeps enough of its shape to
   get past the first check and break a later one. *)

let mutant ~seeds ~punct =
  let open QCheck.Gen in
  let byte =
    frequency [ (3, oneofl (List.of_seq (String.to_seq punct))); (1, char) ]
  in
  let edit s =
    let n = String.length s in
    int_bound n >>= fun i ->
    let before = String.sub s 0 i and after = String.sub s i (n - i) in
    let rest = if i < n then String.sub s (i + 1) (n - i - 1) else "" in
    frequency
      [
        ( 3,
          map
            (fun c -> if i < n then before ^ String.make 1 c ^ rest else s)
            byte );
        (3, map (fun c -> before ^ String.make 1 c ^ after) byte);
        (2, return (before ^ rest));
        (1, return before);
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  frequency
    [
      (1, string_size (0 -- 64));
      (3, pair (oneofl seeds) (1 -- 4) >>= fun (s, k) -> edits k s);
    ]

let total ~name ~count ~seeds ~punct parse =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(Printf.sprintf "%S") (mutant ~seeds ~punct))
    (fun s ->
      match parse s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))
