package simnet

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm is a timerfd read through an *os.File. The fd is non-blocking,
// so the file is served by the runtime's network poller: a goroutine in
// wait is parked, holding no processor, until the kernel's high-resolution
// timer makes the fd readable.
type alarm struct {
	// fd is kept beside file because File.Fd would switch the
	// descriptor to blocking mode and take it off the poller.
	fd   uintptr
	file *os.File
}

// Flags of timerfd_create(2); package syscall does not export them.
const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newAlarm() *alarm {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		panic("simnet: timerfd_create: " + errno.Error())
	}
	return &alarm{fd: fd, file: os.NewFile(fd, "simnet-delay-alarm")}
}

// set makes the alarm fire d from now (at once if d <= 0), replacing any
// earlier setting.
func (a *alarm) set(d time.Duration) {
	// A zero it_value disarms a timerfd; the shortest real wait is 1 ns.
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(int64(max(d, 1)))
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("simnet: timerfd_settime: " + errno.Error())
	}
}

// wait blocks until the alarm has fired since the last wait.
func (a *alarm) wait() {
	var expirations [8]byte
	if _, err := a.file.Read(expirations[:]); err != nil {
		panic("simnet: timerfd read: " + err.Error())
	}
}
