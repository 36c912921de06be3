(* Order statistics, process accounting and the result file. *)

let now = Unix.gettimeofday

let sorted xs = let a = Array.of_list xs in Array.sort compare a; a

(* nearest-rank percentile of a sorted array *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs = percentile (sorted xs) 50.

(* a / (a + b), 0 when both are 0 *)
let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)

(* The highest of a fixed ladder of percentiles that leaves at least ten
   samples beyond it, so the tail figure is never one outlier. *)
let tail a =
  let n = float_of_int (Array.length a) in
  let fits p = n *. (1. -. (p /. 100.)) >= 10. in
  match List.find_opt fits [ 99.9; 99.; 98.; 95.; 90.; 80.; 75.; 50. ] with
  | Some p -> (p, percentile a p)
  | None -> (0., percentile a 100.)

let cpu_self () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* user+system seconds of another process; /proc reports clock ticks of
   USER_HZ, which Linux fixes at 100 *)
let cpu_of_pid pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let proc pid file =
  match pid with None -> "/proc/self/" ^ file | Some p -> Printf.sprintf "/proc/%d/%s" p file

(* peak resident set since start or the last [reset_peak], MB *)
let peak_rss_mb pid =
  let path = proc pid "status" in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file path))
  in
  Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)

(* Linux resets the peak to the current resident set on "5" *)
let reset_peak pid =
  let oc = open_out (proc pid "clear_refs") in
  output_string oc "5";
  close_out oc

(* --- the result of one run --- *)

type result = {
  mutable attempted : int;
  mutable failed : int;  (** errors, timeouts and wrong verdicts *)
  mutable wrong : int;  (** verdicts that differ from the reference *)
  mutable metrics : (string * float * string) list;  (** name, value, unit, in order *)
}

let result () = { attempted = 0; failed = 0; wrong = 0; metrics = [] }
let metric r name unit v = r.metrics <- r.metrics @ [ (name, v, unit) ]

let wrong r fmt =
  Format.kasprintf
    (fun msg ->
      r.wrong <- r.wrong + 1;
      r.failed <- r.failed + 1;
      Format.printf "WRONG VERDICT: %s@." msg)
    fmt

(* A negative or non-finite figure is a measurement error, never a
   result. *)
let write_json path r =
  List.iter
    (fun (name, v, _) ->
      if (not (Float.is_finite v)) || v < 0. then
        failwith (Printf.sprintf "measurement error: %s = %g" name v))
    r.metrics;
  let oc = open_out path in
  Printf.fprintf oc "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.wrong = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          r.metrics));
  close_out oc

let print_metrics r =
  List.iter (fun (name, v, unit) -> Format.printf "  %-34s %14.6g %s@." name v unit) r.metrics
