(* daemon-edit-loop: an [rlcheckd serve] child with default settings and
   two closed-loop client connections from this process, one per core.

   Each client owns a pool of base models of 40-150 reachable states plus
   an unreachable region. A pass submits every base model, under a fresh
   state permutation and a fresh name, four times: new, identical
   resubmit, an edit inside the unreachable region, and a small reachable
   edit. Even-numbered models go by [path], odd ones [inline]. The
   permutation keeps passes from replaying the previous pass's memo
   entries, and leaves the reference answers of the base models valid. *)

module J = Rl_service.Jsonx
module Request = Rl_service.Request
module M = Measure

let socket = "d.sock"
let read_timeout_s = 20.
let clients = 2
let warmup_s = 3.

(* --- the connection --- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e -> Unix.close fd; raise e);
  (* a hung daemon fails the read instead of blocking the run *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO read_timeout_s;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* one request line out, one reply line back; [tr] times the codec and
   the socket separately *)
let roundtrip tr c doc =
  let line = Trace.span tr "jsonx.codec" (fun () -> J.to_string doc) in
  let reply =
    Trace.span tr "socket" (fun () ->
        output_string c.oc line;
        output_char c.oc '\n';
        flush c.oc;
        input_line c.ic)
  in
  match Trace.span tr "jsonx.codec" (fun () -> J.parse reply) with
  | Ok d -> d
  | Error e -> failwith ("malformed reply: " ^ e)

let once doc =
  let c = connect () in
  Fun.protect ~finally:(fun () -> close c) (fun () -> roundtrip (Trace.create ()) c doc)

(* a number inside a stats reply; the daemon reports every counter *)
let field doc path =
  let rec go doc = function
    | [] -> J.num doc
    | k :: rest -> Option.bind (J.member k doc) (fun d -> go d rest)
  in
  match go doc ("stats" :: path) with
  | Some v -> v
  | None -> failwith ("stats reply lacks " ^ String.concat "." path)

(* --- the daemon process --- *)

let wait_exit pid ~within =
  let deadline = M.now () +. within in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when M.now () < deadline -> Unix.sleepf 0.005; go ()
    | 0, _ -> false
    | _ -> true
  in
  go ()

(* shutdown request, bounded wait, then a kill; [false] if it had to be
   killed *)
let stop pid =
  (try ignore (once (J.Obj [ ("op", J.Str "shutdown") ])) with _ -> ());
  wait_exit pid ~within:10.
  || begin
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       ignore (Unix.waitpid [] pid);
       false
     end

(* spawn to first ping reply *)
let spawn rlcheckd =
  let t0 = M.now () in
  let pid =
    Unix.create_process rlcheckd [| rlcheckd; "serve"; "--socket"; socket; "--quiet" |] Unix.stdin
      Unix.stdout Unix.stderr
  in
  let rec ping () =
    match once (J.Obj [ ("op", J.Str "ping") ]) with
    | _ -> ()
    | exception (Unix.Unix_error _ | End_of_file | Sys_error _) when M.now () -. t0 < 30. ->
        Unix.sleepf 0.001;
        ping ()
  in
  ping ();
  (pid, M.now () -. t0)

(* --- the traffic --- *)

let abc = [| "a"; "b"; "c" |]

type base = {
  v0 : Models.model;  (** the submitted model *)
  v1 : Models.model;  (** plus one unreachable transition *)
  v2 : Models.model;  (** plus one reachable transition *)
  kind : Request.kind;
  shape : Models.formula;
}

let sizes = [| 40; 70; 100; 130; 150; 55; 85; 115; 140; 150 |]

(* fixed, like the library corpora: the run's seed renames states and
   names each pass *)
let bases client =
  let st = Models.rng 0 (Printf.sprintf "daemon-client-%d" client) in
  Array.mapi
    (fun i states ->
      let v0 = Models.random_ts st ~labels:abc ~states ~unreachable:8 ~branching:2.0 () in
      let v1 = Models.unreachable_edit st v0 in
      let v2 = Models.reachable_edit st v1 in
      let kind = if i mod 4 = 3 then Request.Sat else Request.Rl in
      { v0; v1; v2; kind; shape = Models.random_formula st abc ~shape:i })
    sizes

type job = {
  client : int;
  base : int;
  edited : bool;  (** v2, the reachable edit; otherwise v0's language *)
  path : string option;  (** [Some] for models sent by path *)
  name : string;
  text : string;
  kind : Request.kind;
  formula : string;
}

type sample = {
  job : job;
  rtt : float;
  finished : float;  (** wall-clock time the reply arrived *)
  outcome : [ `Holds | `Fails of string | `Error of string ];
}

let job_json j =
  let model =
    match j.path with
    | Some p -> [ ("path", J.Str p) ]
    | None -> [ ("model", J.Str j.text); ("name", J.Str j.name) ]
  in
  J.Obj
    [ ("op", J.Str "check");
      ("jobs", J.Arr [ J.Obj ([ ("kind", J.Str (Request.kind_name j.kind)) ] @ model @ [ ("formula", J.Str j.formula) ]) ]) ]

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let outcome_of reply =
  match J.arr_member "results" reply with
  | Some [ r ] when J.bool_member "ok" reply = Some true -> (
      match J.str_member "status" r with
      | Some "holds" -> `Holds
      | Some "fails" -> `Fails (Option.value ~default:"" (J.str_member "witness" r))
      | s -> `Error ("status " ^ Option.value ~default:"?" s))
  | _ -> `Error ("bad reply " ^ J.to_string reply)

(* The jobs of pass [pass] over one client's bases. *)
let pass_jobs st ~prefix ~client ~pass bases =
  List.concat
    (List.mapi
       (fun i b ->
         let name = Printf.sprintf "%s%d-m%d-p%d" prefix client i pass in
         let path = if i mod 2 = 0 then Some (Printf.sprintf "models/%s.ts" name) else None in
         let perm = Models.permutation st b.v0.Models.states in
         let job edited m =
           { client; base = i; edited; path; name; text = Models.text (Models.rename perm m); kind = b.kind;
             formula = Models.formula_text b.shape }
         in
         let j0 = job false b.v0 in
         [ j0; j0; job false b.v1; job true b.v2 ])
       (Array.to_list bases))

(* One client: whole passes until [seconds] are up. [ping_every] > 0
   interleaves a ping after that many checks. *)
let client_loop ~seconds ~prefix ~client ~tr ~ping_every st bases =
  let c = connect () in
  let samples = ref [] and pings = ref [] and n = ref 0 in
  let t_end = M.now () +. seconds in
  let pass = ref 0 in
  (try
     while M.now () < t_end do
       List.iter
         (fun j ->
           Option.iter (fun p -> write_file p j.text) j.path;
           let doc = job_json j in
           let t0 = M.now () in
           let outcome =
             match roundtrip tr c doc with
             | reply -> outcome_of reply
             | exception e -> `Error (Printexc.to_string e)
           in
           let finished = M.now () in
           samples := { job = j; rtt = finished -. t0; finished; outcome } :: !samples;
           (match outcome with `Error _ -> raise Exit | _ -> ());
           incr n;
           if ping_every > 0 && !n mod ping_every = 0 then begin
             let t0 = M.now () in
             ignore (roundtrip tr c (J.Obj [ ("op", J.Str "ping") ]));
             pings := (M.now () -. t0) :: !pings
           end)
         (pass_jobs st ~prefix ~client ~pass:!pass bases);
       incr pass
     done
   with Exit -> ());
  close c;
  (List.rev !samples, !pings)

(* Both clients concurrently. Meanwhile the calling thread samples the
   daemon's CPU time about once a second; the samples cut the run into
   windows, and only windows before the first client stops count.
   Returns the samples, the pings, the recorders, the wall time and the
   windows as (checks per second, latencies, daemon CPU seconds per
   check, daemon peak resident set). *)
let run_clients ?pid ~seconds ~prefix ~ping_every seed bases =
  let results = Array.make clients ([], [], Trace.create ()) in
  let done_at = Array.make clients infinity in
  let t0 = M.now () in
  let threads =
    List.init clients (fun client ->
        Thread.create
          (fun () ->
            let tr = Trace.create () in
            let st = Models.rng seed (Printf.sprintf "%spermute-%d" prefix client) in
            let samples, pings = client_loop ~seconds ~prefix ~client ~tr ~ping_every st bases.(client) in
            results.(client) <- (samples, pings, tr);
            done_at.(client) <- M.now ())
          ())
  in
  let ticks = ref [] in
  (match pid with
  | Some pid ->
      M.reset_peak (Some pid);
      while Array.exists (fun t -> t = infinity) done_at do
        ticks := (M.now (), M.cpu_of_pid pid, M.peak_rss_mb (Some pid)) :: !ticks;
        M.reset_peak (Some pid);
        Thread.delay 1.0
      done
  | None -> ());
  List.iter Thread.join threads;
  let wall = M.now () -. t0 in
  let samples = Array.to_list results |> List.concat_map (fun (s, _, _) -> s) in
  let pings = Array.to_list results |> List.concat_map (fun (_, p, _) -> p) in
  let first_done = Array.fold_left min infinity done_at in
  let rec windows = function
    | (t1, c1, rss) :: ((t0, c0, _) :: _ as rest) when t1 <= first_done ->
        let inside = List.filter (fun s -> s.finished >= t0 && s.finished < t1) samples in
        let k = List.length inside in
        (float_of_int k /. (t1 -. t0), List.map (fun s -> s.rtt) inside, (c1 -. c0) /. float_of_int k, rss)
        :: windows rest
    | _ :: rest -> windows rest
    | [] -> []
  in
  (samples, pings, Array.map (fun (_, _, tr) -> tr) results, wall, windows !ticks)

(* --- verdicts against the references --- *)

let verify (r : M.result) bases samples =
  let refs = Hashtbl.create 64 and seen = Hashtbl.create 256 in
  List.iter
    (fun s ->
      r.M.attempted <- r.M.attempted + 1;
      let j = s.job in
      let client = j.client in
      let b = bases.(client).(j.base) in
      let model = if j.edited then b.v2 else b.v0 in
      let describe () = Printf.sprintf "%s %s on %s" (Request.kind_name j.kind) j.formula j.name in
      let refs () =
        let key = (client, j.base, j.edited) in
        match Hashtbl.find_opt refs key with
        | Some x -> x
        | None ->
            let x = Reference.refs model b.shape j.formula in
            Hashtbl.add refs key x;
            x
      in
      match s.outcome with
      | `Error e ->
          r.M.failed <- r.M.failed + 1;
          Format.printf "check failed: %s: %s@." (describe ()) e
      | (`Holds | `Fails _) as o when not (Hashtbl.mem seen (client, j.base, j.edited, o)) ->
          Hashtbl.add seen (client, j.base, j.edited, o) ();
          let witness = match o with `Fails w -> Some w | `Holds -> None in
          Option.iter
            (M.wrong r "%s: %s" (describe ()))
            (Reference.judge model (refs ()) ~kind:j.kind ~formula:j.formula ~witness)
      | _ -> ())
    samples

(* --- the run --- *)

let stats () = once (J.Obj [ ("op", J.Str "stats") ])

let run ~rlcheckd ~seconds ~trace seed =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let r = M.result () in
  (try Unix.mkdir "models" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let bases = Array.init clients bases in
  Format.printf "workload daemon-edit-loop: %d clients x %d base models, digest %s@." clients
    (Array.length sizes)
    (Models.digest
       (List.concat_map
          (fun bs ->
            List.concat_map
              (fun (b : base) -> [ Request.kind_name b.kind; Models.formula_text b.shape; Models.text b.v0; Models.text b.v1; Models.text b.v2 ])
              (Array.to_list bs))
          (Array.to_list bases)));
  (* set-up, several times; the last daemon serves the run *)
  let setups = ref [] and pid = ref 0 in
  for i = 1 to 5 do
    let p, dt = spawn rlcheckd in
    setups := dt :: !setups;
    if i < 5 then ignore (stop p) else pid := p
  done;
  let pid = !pid in
  let finally () = if not (stop pid) then (r.M.failed <- r.M.failed + 1; Format.printf "daemon did not exit on shutdown; killed@.") in
  Fun.protect ~finally @@ fun () ->
  (* warm-up, untimed, on models of its own, long enough to fill the
     daemon's bounded caches *)
  ignore (run_clients ~seconds:warmup_s ~prefix:"w" ~ping_every:0 seed bases);
  let measured_s = if trace then seconds /. 2. else seconds in
  let samples, _, _, wall, windows = run_clients ~pid ~seconds:measured_s ~prefix:"c" ~ping_every:0 seed bases in
  let n = float_of_int (List.length samples) in
  verify r bases samples;
  let ok = List.filter (fun s -> match s.outcome with `Error _ -> false | _ -> true) samples in
  let lat = M.sorted (List.map (fun s -> s.rtt) ok) in
  let tail_p, tail = M.tail lat in
  Format.printf "%.0f checks in %.2f s (%d one-second windows), tail = p%g@." n wall
    (List.length windows) tail_p;
  if not trace then begin
    (* medians over the windows, so a burst of interference on the host
       moves one window, not the figure *)
    let over_windows f = M.median (List.map f windows) in
    M.metric r "checks_per_s" "1/s" (over_windows (fun (rate, _, _, _) -> rate));
    M.metric r "check_p50_ms" "ms" (over_windows (fun (_, l, _, _) -> 1000. *. M.median l));
    M.metric r "check_tail_ms" "ms" (1000. *. tail);
    M.metric r "cpu_ms_per_check" "ms" (over_windows (fun (_, _, cpu, _) -> 1000. *. cpu));
    M.metric r "peak_rss_mb" "MB" (over_windows (fun (_, _, _, rss) -> rss));
    M.metric r "success_rate" "ratio" ((n -. float_of_int r.M.failed) /. n);
    M.metric r "setup_s" "s" (M.median !setups)
  end
  else begin
    let s1 = stats () in
    let samples, pings, trs, twall, _ = run_clients ~seconds:(seconds /. 2.) ~prefix:"t" ~ping_every:4 seed bases in
    let s2 = stats () in
    verify r bases samples;
    let tn = float_of_int (List.length samples) in
    let d path = field s2 path -. field s1 path in
    let tr = Trace.create () in
    Array.iter (Trace.merge_into tr) trs;
    (* the same job stream through an in-process Request.run ~cache: its
       time is the checking; the rest of the round trip is the daemon's *)
    let cache = Request.cache ~capacity:256 () and replica = Trace.create () in
    let inproc = ref 0. and words = ref 0. and majors = ref 0 in
    List.iter
      (fun s ->
        let j = s.job in
        Option.iter (fun p -> write_file p j.text) j.path;
        let model = match j.path with Some p -> Request.File p | None -> Request.Inline { name = j.name; text = j.text } in
        let decides0 = (Request.recheck_stats cache).Request.decides in
        let g0 = (Gc.quick_stat ()).Gc.major_collections and w0 = Gc.minor_words () in
        let t0 = M.now () in
        ignore (Request.run ~cache (Request.job j.kind model j.formula));
        inproc := !inproc +. (M.now () -. t0);
        words := !words +. (Gc.minor_words () -. w0);
        majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - g0);
        (* a decided job, replayed step by step for the layer figures *)
        if (Request.recheck_stats cache).Request.decides > decides0 then
          ignore (Replay.check replica ~kind:j.kind ~name:j.name ~text:j.text ~formula:j.formula ()))
      samples;
    let rtt = List.fold_left (fun a s -> a +. s.rtt) 0. samples in
    let ratio = M.ratio and ms name v = M.metric r name "ms" v in
    Replay.layer_metrics r replica ~checks:tn;
    M.metric r "simcache.hit_ratio" "ratio" (ratio (d [ "simcache"; "hits" ]) (d [ "simcache"; "misses" ]));
    let nodes = d [ "hotpath"; "nodes" ] in
    M.metric r "inclusion.nodes" "count" (nodes /. tn);
    M.metric r "inclusion.subsumed_ratio" "ratio" (ratio (d [ "hotpath"; "antichain_hits" ]) nodes);
    let per_knode x = if nodes = 0. then 0. else 1000. *. x /. nodes in
    M.metric r "pool.steals_per_knode" "count" (per_knode (d [ "hotpath"; "steals" ]));
    M.metric r "pool.parks" "count" (d [ "hotpath"; "parks" ] /. tn);
    M.metric r "pool.contention_per_knode" "count" (per_knode (d [ "hotpath"; "shard_contention" ]));
    M.metric r "request.memo_hit_ratio" "ratio" (ratio (d [ "recheck"; "memo_hits" ]) (d [ "recheck"; "decides" ]));
    M.metric r "request.lint_memo_hit_ratio" "ratio" (ratio (d [ "lint_stats"; "hits" ]) (d [ "lint_stats"; "misses" ]));
    M.metric r "request.model_cache_hit_ratio" "ratio"
      (ratio (d [ "model_cache"; "hits" ]) (d [ "model_cache"; "misses" ]));
    M.metric r "request.decides_per_check" "count" (d [ "recheck"; "decides" ] /. tn);
    List.iter
      (fun k -> M.metric r ("ts_diff." ^ k) "ratio" (d [ "recheck"; k ] /. tn))
      [ "identical"; "equivalent"; "local"; "global" ];
    ms "daemon.overhead_ms" (1000. *. (rtt -. !inproc) /. tn);
    ms "daemon.ping_ms" (1000. *. M.median pings);
    ms "jsonx.codec_ms" (1000. *. Trace.time tr "jsonx.codec" /. tn);
    M.metric r "gc.minor_words_per_check" "words" (!words /. tn);
    M.metric r "gc.major_collections_per_check" "count" (float_of_int !majors /. tn);
    M.metric r "trace.coverage" "ratio" (tr.Trace.covered /. (float_of_int clients *. twall));
    M.metric r "trace.overhead" "x" ((n /. wall) /. (tn /. twall));
    Format.printf "traced: %.0f checks in %.2f s; client time in codec %.1f%%, socket %.1f%%; in-process replay %.2f s@."
      tn twall
      (100. *. Trace.time tr "jsonx.codec" /. (float_of_int clients *. twall))
      (100. *. Trace.time tr "socket" /. (float_of_int clients *. twall))
      !inproc;
    Format.printf "layer time of decided jobs, as a share of in-process checking time:@.";
    Replay.print_shares replica ~total:!inproc
  end;
  r
