package live

import "iter"

// thread is the one coroutine a live thread is.
type thread struct{ resume func() (struct{}, bool) }

func (t *thread) start(body iter.Seq[struct{}]) { t.resume, _ = iter.Pull(body) }
