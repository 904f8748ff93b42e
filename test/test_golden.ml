(* Every experiment has a golden output and a rule that checks it: the
   names in [Swala.Experiments.targets], the basenames of the committed
   bench/golden/*.txt files and the (diff <name>.txt <name>.out) rules of
   bench/golden/dune must be one set. A target added without its golden,
   or a golden without its rule, fails here instead of going unchecked.
   The golden directory is the first argument. *)

let dir = ref ""

let catalogue () =
  List.sort compare
    (List.map
       (fun (e : Swala.Experiments.target) -> e.Swala.Experiments.name)
       Swala.Experiments.targets)

let goldens () =
  List.sort compare
    (List.filter_map
       (fun file ->
         if Filename.check_suffix file ".txt" then
           Some (Filename.chop_suffix file ".txt")
         else None)
       (Array.to_list (Sys.readdir !dir)))

(* The target of each "(diff NAME.txt NAME.out)" line. *)
let diff_rules () =
  let ic = open_in (Filename.concat !dir "dune") in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.sort compare acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "(diff"; txt; out ] ->
            let name = Filename.chop_suffix txt ".txt" in
            let out = String.concat "" (String.split_on_char ')' out) in
            Alcotest.(check string)
              ("compared with " ^ txt) (name ^ ".out") out;
            loop (name :: acc)
        | _ -> loop acc)
  in
  loop []

let same what a b () = Alcotest.(check (list string)) what (a ()) (b ())

let () =
  dir := Sys.argv.(1);
  let argv = [| Sys.argv.(0) |] in
  Alcotest.run ~argv "golden"
    [
      ( "coverage",
        [
          Alcotest.test_case "every target has a golden" `Quick
            (same "golden basenames" catalogue goldens);
          Alcotest.test_case "every golden has a diff rule" `Quick
            (same "diff rules" goldens diff_rules);
        ] );
    ]
