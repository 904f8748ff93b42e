(* The command line's usage errors: a bad count or an output path that
   cannot be written ends [swala_sim] with one line on stderr and exit
   status 2, before any simulation runs (so nothing reaches stdout). The
   binary under test is the first argument. *)

let exe = ref ""

(* Scratch space: a regular file, so no path below it can be opened, and
   a directory for paths that can. In the directory, a subdirectory sits
   where one per-seed and one per-node output file should go, so those
   files are unwritable while their siblings are fine. *)
let not_a_dir = Filename.temp_file "swala_cli" ".file"
let blocked = [ "m.json.43"; "tel.node1.csv" ]

let scratch_dir =
  let d = Filename.temp_file "swala_cli" ".dir" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  List.iter (fun name -> Sys.mkdir (Filename.concat d name) 0o755) blocked;
  d

let () =
  at_exit (fun () ->
      Array.iter
        (fun name ->
          let p = Filename.concat scratch_dir name in
          if Sys.is_directory p then Sys.rmdir p else Sys.remove p)
        (Sys.readdir scratch_dir);
      Sys.rmdir scratch_dir;
      Sys.remove not_a_dir)

let in_scratch name = Filename.concat scratch_dir name
let unwritable name = Filename.concat not_a_dir name

let read_lines path =
  let ic = open_in_bin path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

(* Run the binary; return its exit status, stdout and stderr lines. *)
let run args =
  let out = Filename.temp_file "swala_cli" ".out"
  and err = Filename.temp_file "swala_cli" ".err" in
  let status = Sys.command (Filename.quote_command !exe ~stdout:out ~stderr:err args) in
  let o = read_lines out and e = read_lines err in
  Sys.remove out;
  Sys.remove err;
  (status, o, e)

let usage_error args expected () =
  let status, out, err = run args in
  Alcotest.(check int) "exit status" 2 status;
  Alcotest.(check (list string)) "nothing on stdout" [] out;
  Alcotest.(check (list string)) "one line on stderr" [ expected ] err

let cases =
  let small = [ "run"; "--requests"; "20" ] in
  [
    ( "run --streams 0",
      [ "run"; "--streams"; "0" ],
      "swala_sim run: --streams must be >= 1" );
    ( "run --requests 0",
      [ "run"; "--requests"; "0" ],
      "swala_sim run: --requests must be >= 1" );
    ( "gen --requests 0",
      [ "gen"; "--requests"; "0" ],
      "swala_sim gen: --requests must be >= 1" );
    ( "run --trace",
      small @ [ "--trace"; unwritable "t.json" ],
      Printf.sprintf "swala_sim run: --trace: cannot write %s: Not a directory"
        (unwritable "t.json") );
    ( "run --metrics-out",
      small @ [ "--metrics-out"; unwritable "m.json" ],
      Printf.sprintf "swala_sim run: --metrics-out: cannot write %s: Not a directory"
        (unwritable "m.json") );
    ( "run --metrics-out .SEED",
      small @ [ "--seeds"; "2"; "--metrics-out"; in_scratch "m.json" ],
      Printf.sprintf "swala_sim run: --metrics-out: cannot write %s: Is a directory"
        (in_scratch "m.json.43") );
    ( "run --telemetry-csv",
      small @ [ "-n"; "2"; "--telemetry-interval"; "1"; "--telemetry-csv"; in_scratch "tel" ],
      Printf.sprintf "swala_sim run: --telemetry-csv: cannot write %s: Is a directory"
        (in_scratch "tel.node1.csv") );
    ( "run --incidents-out",
      small @ [ "--telemetry-interval"; "1"; "--incidents-out"; unwritable "i.log" ],
      Printf.sprintf "swala_sim run: --incidents-out: cannot write %s: Not a directory"
        (unwritable "i.log") );
    ( "gen --output",
      [ "gen"; "--requests"; "5"; "--out"; unwritable "g.log" ],
      Printf.sprintf "swala_sim gen: --output: cannot write %s: Not a directory"
        (unwritable "g.log") );
  ]

(* The probes leave nothing behind: files they had to create for the
   per-seed and per-node siblings of a blocked path are removed again. *)
let test_probes_leave_no_files () =
  ignore (run [ "run"; "--requests"; "20"; "--seeds"; "2"; "--metrics-out"; in_scratch "m.json" ]);
  ignore
    (run
       [ "run"; "--requests"; "20"; "-n"; "2"; "--telemetry-interval"; "1";
         "--telemetry-csv"; in_scratch "tel" ]);
  Alcotest.(check (list string))
    "only the blocking directories" (List.sort compare blocked)
    (List.sort compare (Array.to_list (Sys.readdir scratch_dir)))

let () =
  exe := Sys.argv.(1);
  let argv = Array.append [| Sys.argv.(0) |] (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)) in
  Alcotest.run ~argv "cli"
    [
      ( "usage-errors",
        List.map
          (fun (name, args, expected) ->
            Alcotest.test_case name `Quick (usage_error args expected))
          cases
        @ [ Alcotest.test_case "probes leave no files" `Quick test_probes_leave_no_files ] );
    ]
