package sim

// The binary-heap reference scheduler. Production engines run only on the
// timing wheel; the heap stays here as the simple O(log n) structure the
// equivalence tests and fuzzers hold the wheel to.

// schedKind names a pending-event structure under test.
type schedKind uint8

const (
	schedWheel schedKind = iota // the production timing wheel
	schedHeap                   // the binary-heap reference below
)

// schedKinds lists every structure, wheel first (the reference runs second
// so failure messages read "wheel vs heap").
var schedKinds = []schedKind{schedWheel, schedHeap}

func (k schedKind) String() string {
	if k == schedHeap {
		return "heap"
	}
	return "wheel"
}

// newEngine returns an engine on the given pending-event structure.
func newEngine(seed int64, k schedKind) *Engine {
	e := New(seed)
	if k == schedHeap {
		e.sched = new(eventHeap)
	}
	return e
}

// eventHeap is a hand-rolled binary min-heap. container/heap would box every
// event into an interface on Push — one allocation per scheduled event, paid
// on every packet transmission — so the sift operations are inlined here.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return eventLess(&h[i], &h[j])
}

// push appends the event and restores the heap invariant.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the callback/handler for GC
	q = q[:n]
	*h = q
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// peek returns the earliest pending firing time.
func (h *eventHeap) peek() (Time, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0].at, true
}

// len returns the number of pending events.
func (h *eventHeap) len() int { return len(*h) }
