(* A binary min-heap keyed by (time, seq) pairs, kept in parallel unboxed
   arrays — a [float array] and an [int array] — beside the payload
   array, so ordering an element costs two flat array reads and an
   inlined compare: no closure call, no boxed float per element, no
   [option] allocation on the pop path. Payload slots freed by
   [pop_min]/[compact] are overwritten with the dummy element so dead
   payloads are never retained.

   It sifts with a "hole" rather than by swapping: the moving element is
   held aside while ancestors (or descendants) shift into the hole, and
   is written exactly once at its final position. The comparison
   sequence — and therefore the resulting array layout and pop order — is
   identical to the classic swap formulation, so the hole costs nothing
   in reproducibility and saves two writes per level. *)

type cell = { mutable time : float }

module Timed = struct
  type 'a t = {
    dummy : 'a;
    mutable times : float array;
    mutable seqs : int array;
    mutable data : 'a array;
    mutable size : int;
  }

  let create ~dummy () =
    { dummy; times = [||]; seqs = [||]; data = [||]; size = 0 }

  let length t = t.size
  let is_empty t = t.size = 0
  let capacity t = Array.length t.times

  let grow t =
    let cap = Array.length t.times in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let ntimes = Array.make ncap 0. in
      let nseqs = Array.make ncap 0 in
      let ndata = Array.make ncap t.dummy in
      Array.blit t.times 0 ntimes 0 t.size;
      Array.blit t.seqs 0 nseqs 0 t.size;
      Array.blit t.data 0 ndata 0 t.size;
      t.times <- ntimes;
      t.seqs <- nseqs;
      t.data <- ndata
    end

  (* (time, seq) lexicographic order; seq is expected to be unique, so
     the order is total and pop order is fully deterministic. *)

  (* Sift the triple in slot [i] up towards the root while its parent's
     key is greater. The triple is read here, not passed in, so its time
     is never boxed. *)
  let sift_up t i =
    let times = t.times and seqs = t.seqs and data = t.data in
    let time = times.(i) and seq = seqs.(i) and x = data.(i) in
    let i = ref i in
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let p = (!i - 1) / 2 in
      let tp = times.(p) in
      if tp > time || (tp = time && seqs.(p) > seq) then begin
        times.(!i) <- tp;
        seqs.(!i) <- seqs.(p);
        data.(!i) <- data.(p);
        i := p
      end
      else continue_ := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    data.(!i) <- x

  (* Append the triple in a new last slot, then sift it up. *)
  let push t ~time ~seq x =
    grow t;
    let i = t.size in
    t.size <- i + 1;
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.data.(i) <- x;
    sift_up t i

  let push_cell t cell ~seq x =
    grow t;
    let i = t.size in
    t.size <- i + 1;
    t.times.(i) <- cell.time;
    t.seqs.(i) <- seq;
    t.data.(i) <- x;
    sift_up t i

  let min_time t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.min_time: empty heap";
    t.times.(0)

  let read_min_time t cell =
    if t.size = 0 then invalid_arg "Pqueue.Timed.read_min_time: empty heap";
    cell.time <- t.times.(0)

  let min_seq t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.min_seq: empty heap";
    t.seqs.(0)

  let peek_min t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.peek_min: empty heap";
    t.data.(0)

  (* Sift the (time, seq, payload) triple in slot [src] down from the
     hole at [hole], assuming children below [hole] already satisfy the
     heap property. The triple is read here, not passed in, so its time
     is never boxed. *)
  let sift_down t ~hole ~src =
    let times = t.times and seqs = t.seqs and data = t.data in
    let mtime = times.(src) and mseq = seqs.(src) and mx = data.(src) in
    let n = t.size in
    let i = ref hole in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < mtime || (times.(c) = mtime && seqs.(c) < mseq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          data.(!i) <- data.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    times.(!i) <- mtime;
    seqs.(!i) <- mseq;
    data.(!i) <- mx

  let pop_min t =
    if t.size = 0 then invalid_arg "Pqueue.Timed.pop_min: empty heap";
    let data = t.data in
    let top = data.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then sift_down t ~hole:0 ~src:n;
    data.(n) <- t.dummy;
    top

  (* Drop every element [keep] rejects, then re-establish the heap
     property bottom-up in O(n). Survivors keep their (time, seq) keys,
     so the pop order of the survivors is unchanged. *)
  let compact t ~keep =
    let n = t.size in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep ~seq:t.seqs.(i) t.data.(i) then begin
        if !j < i then begin
          t.times.(!j) <- t.times.(i);
          t.seqs.(!j) <- t.seqs.(i);
          t.data.(!j) <- t.data.(i)
        end;
        incr j
      end
    done;
    for i = !j to n - 1 do
      t.data.(i) <- t.dummy
    done;
    t.size <- !j;
    for i = ((!j - 2) / 2) downto 0 do
      sift_down t ~hole:i ~src:i
    done

  let clear t =
    t.times <- [||];
    t.seqs <- [||];
    t.data <- [||];
    t.size <- 0
end

(* The same (time, seq) heap over elements that know their own slot, so
   an element can be re-keyed or removed in place in O(log n). Each
   element records its position in [pos] ([-1] while it is not queued),
   and every sift step that moves an element updates it. A sift reads
   the moving element's key from its slot, so no float is passed, and
   none boxed, on the way. *)
module Indexed = struct
  type 'a elt = { mutable pos : int; value : 'a }

  type 'a t = {
    dummy : 'a elt;
    mutable times : float array;
    mutable seqs : int array;
    mutable elts : 'a elt array;
    mutable size : int;
  }

  let elt value = { pos = -1; value }
  let value e = e.value

  let create ~dummy () =
    { dummy = elt dummy; times = [||]; seqs = [||]; elts = [||]; size = 0 }

  let length t = t.size
  let is_empty t = t.size = 0

  let grow t =
    let cap = Array.length t.times in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let ntimes = Array.make ncap 0. in
      let nseqs = Array.make ncap 0 in
      let nelts = Array.make ncap t.dummy in
      Array.blit t.times 0 ntimes 0 t.size;
      Array.blit t.seqs 0 nseqs 0 t.size;
      Array.blit t.elts 0 nelts 0 t.size;
      t.times <- ntimes;
      t.seqs <- nseqs;
      t.elts <- nelts
    end

  (* Move the element at [i] towards the root while its parent's key is
     greater. *)
  let sift_up t i =
    let times = t.times and seqs = t.seqs and elts = t.elts in
    let time = times.(i) and seq = seqs.(i) and e = elts.(i) in
    let i = ref i in
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let p = (!i - 1) / 2 in
      let tp = times.(p) in
      if tp > time || (tp = time && seqs.(p) > seq) then begin
        let ep = elts.(p) in
        times.(!i) <- tp;
        seqs.(!i) <- seqs.(p);
        elts.(!i) <- ep;
        ep.pos <- !i;
        i := p
      end
      else continue_ := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    elts.(!i) <- e;
    e.pos <- !i

  (* Move the element at [i] towards the leaves while a child's key is
     smaller. *)
  let sift_down t i =
    let times = t.times and seqs = t.seqs and elts = t.elts in
    let time = times.(i) and seq = seqs.(i) and e = elts.(i) in
    let n = t.size in
    let i = ref i in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          let ec = elts.(c) in
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          elts.(!i) <- ec;
          ec.pos <- !i;
          i := c
        end
        else continue_ := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    elts.(!i) <- e;
    e.pos <- !i

  let set t e key ~seq =
    let time = key.time in
    if e.pos < 0 then begin
      grow t;
      let i = t.size in
      t.size <- i + 1;
      t.times.(i) <- time;
      t.seqs.(i) <- seq;
      t.elts.(i) <- e;
      sift_up t i
    end
    else begin
      let i = e.pos in
      let up = time < t.times.(i) || (time = t.times.(i) && seq < t.seqs.(i)) in
      t.times.(i) <- time;
      t.seqs.(i) <- seq;
      if up then sift_up t i else sift_down t i
    end

  (* Fill the hole at [i] with the last element, then move that element
     up or down to its place. *)
  let remove_at t i =
    let n = t.size - 1 in
    t.size <- n;
    let times = t.times and seqs = t.seqs and elts = t.elts in
    if i < n then begin
      let up =
        times.(n) < times.(i) || (times.(n) = times.(i) && seqs.(n) < seqs.(i))
      in
      times.(i) <- times.(n);
      seqs.(i) <- seqs.(n);
      elts.(i) <- elts.(n);
      elts.(n) <- t.dummy;
      if up then sift_up t i else sift_down t i
    end
    else elts.(n) <- t.dummy

  let remove t e =
    if e.pos >= 0 then begin
      let i = e.pos in
      e.pos <- -1;
      remove_at t i
    end

  let read_min_time t cell =
    if t.size = 0 then invalid_arg "Pqueue.Indexed.read_min_time: empty heap";
    cell.time <- t.times.(0)

  let min_seq t =
    if t.size = 0 then invalid_arg "Pqueue.Indexed.min_seq: empty heap";
    t.seqs.(0)

  let pop_min t =
    if t.size = 0 then invalid_arg "Pqueue.Indexed.pop_min: empty heap";
    let top = t.elts.(0) in
    top.pos <- -1;
    remove_at t 0;
    top
end
